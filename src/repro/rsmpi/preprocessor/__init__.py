"""The RSMPI preprocessor: DSL text in, ready-to-use operator out.

Usage::

    from repro.rsmpi import compile_operator

    sorted_op = compile_operator('''
        rsmpi operator sorted {
          non-commutative
          state { int first, last; int status; }
          void ident(state s) { s->first = INT_MAX; s->last = INT_MIN;
                                s->status = 1; }
          void pre_accum(state s, int i) { s->first = i; }
          void accum(state s, int i) { if (s->last > i) s->status = 0;
                                       s->last = i; }
          void combine(state s1, state s2) {
            s1->status &= s2->status && (s1->last <= s2->first);
            s1->last = s2->last;
          }
          int generate(state s) { return s->status; }
        }
    ''')

(which is paper Listing 8 verbatim modulo whitespace), after which
``sorted_op`` plugs into :func:`repro.rsmpi.RSMPI_Reduceall` and friends.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.errors import DslSemanticError
from repro.rsmpi.operator_spec import OperatorSpec
from repro.rsmpi.preprocessor.ast_nodes import FuncDecl, OperatorDecl
from repro.rsmpi.preprocessor.codegen import (
    C_CONSTANTS,
    CompiledOperator,
    generate_python,
    _const_eval,
    _ZERO,
)
from repro.rsmpi.preprocessor.lexer import tokenize
from repro.rsmpi.preprocessor.parser import parse_operator

__all__ = [
    "compile_operator",
    "compile_operator_spec",
    "parse_operator",
    "tokenize",
    "generate_python",
    "CompiledOperator",
    "C_CONSTANTS",
]

#: Function names the spec understands, and their (min, max) arity.
_ROLES: dict[str, tuple[int, int]] = {
    "ident": (1, 1),
    "pre_accum": (2, 99),
    "accum": (2, 99),
    "post_accum": (2, 99),
    "combine": (2, 2),
    "generate": (1, 1),
    "red_generate": (1, 1),
    "scan_generate": (2, 99),
}


def _check_signature(fn: FuncDecl) -> None:
    lo, hi = _ROLES[fn.name]
    n = len(fn.params)
    if not lo <= n <= hi:
        raise DslSemanticError(
            f"function {fn.name!r} takes {n} parameters; expected "
            f"{lo}" + ("" if lo == hi else f"..{hi}")
        )
    if fn.params[0].ctype != "state":
        raise DslSemanticError(
            f"function {fn.name!r}: first parameter must be 'state'"
        )
    if fn.name == "combine" and fn.params[1].ctype != "state":
        raise DslSemanticError(
            "function 'combine': both parameters must be 'state'"
        )


def compile_operator_spec(
    src: str, params: Mapping[str, Any] | None = None
) -> OperatorSpec:
    """Parse + compile DSL source into an :class:`OperatorSpec`."""
    decl: OperatorDecl = parse_operator(src)
    compiled = generate_python(decl, params)

    # State defaults (C doesn't zero-init, but a defined baseline makes
    # ident functions that set only some fields well-behaved).
    defaults: dict[str, Any] = {}
    field_types: dict[str, str] = {}
    for f in decl.state_fields:
        if f.array_size is None:
            field_types[f.name] = f.ctype
        if f.array_size is not None:
            size = _const_eval(f.array_size, compiled.params)
            if not isinstance(size, int) or size < 1:
                raise DslSemanticError(
                    f"state field {f.name!r}: array size must be a positive "
                    f"integer constant, got {size!r}"
                )
            defaults[f.name] = [_ZERO[f.ctype]] * size
        else:
            defaults[f.name] = _ZERO[f.ctype]
    if not defaults:
        raise DslSemanticError(
            f"operator {decl.name!r}: missing state block"
        )

    spec = OperatorSpec(
        decl.name,
        commutative=decl.commutative,
        state=defaults,
        state_types=field_types,
    )
    for fname, fdecl in decl.functions.items():
        if fname not in _ROLES:
            continue  # helper function: callable from the others, no role
        _check_signature(fdecl)
        getattr(spec, fname)(compiled.namespace[fname])
    spec.fn_accum_block = compiled.accum_block
    spec.block_fallback = compiled.block_fallback
    return spec


def compile_operator(src: str, params: Mapping[str, Any] | None = None):
    """Parse + compile DSL source into a ready
    :class:`~repro.core.operator.ReduceScanOp` (the one-call entry
    point — the paper's "preprocessor" as a function)."""
    return compile_operator_spec(src, params).build()
