"""Code generation: RSMPI DSL AST -> Python functions -> OperatorSpec.

This plays the role of the paper's Perl preprocessor ("superficial
changes made by a preprocessor translate this code into a set of
functions that can then be used at the call-site"), except the target is
Python rather than C+MPI: each DSL function becomes a compiled Python
function over :class:`~repro.rsmpi.operator_spec.StateRecord` states,
and the whole operator becomes a ready-to-use
:class:`~repro.core.operator.ReduceScanOp`.

C semantics preserved where they differ from Python's:

* ``/`` and ``%`` on integers truncate toward zero / take the dividend's
  sign (``_c_div``/``_c_mod`` helpers) — NumPy integer scalars, what an
  int64 block's elements are, count as integers;
* ``&&``/``||``/``!`` short-circuit and yield 0/1;
* comparisons yield 0/1 where their value is used (not a bool, and not
  the ``np.bool_`` NumPy operands would give) — so expressions like
  ``s1->status &= s2->status && (...)`` from Listing 8 mean what they
  mean in C.

Assignments and ``++``/``--`` are statements (or for-update clauses)
only; using them as sub-expressions is a compile-time error rather than
a silent mis-compile.

Besides one Python function per DSL function, the generator writes one
*block fold* per operator, ``accum_block(state, values)``: the
``accum`` statements, verbatim, in a loop over the block, on state
fields held in local variables — each scalar-field assignment converted
to the field's C type as :class:`~repro.rsmpi.operator_spec.StateRecord`
would, and the fields written back once per block.  It is the same fold
as calling ``accum`` per element, byte for byte, at a fraction of the
cost (no call and no record lookup per element).  A body that reaches
the state other than through ``s->field`` cannot keep its fields in
locals; such an operator gets no block fold (``block_fallback`` says
why) and keeps the per-element loop.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

import numpy as np

from repro.errors import DslSemanticError
from repro.rsmpi.operator_spec import _CONVERT, _STORE, input_components
from repro.rsmpi.preprocessor import ast_nodes as A

__all__ = ["generate_python", "CompiledOperator", "C_CONSTANTS"]

C_CONSTANTS: dict[str, Any] = {
    "INT_MAX": 2**31 - 1,
    "INT_MIN": -(2**31),
    "LONG_MAX": 2**63 - 1,
    "LONG_MIN": -(2**63),
    "DBL_MAX": 1.7976931348623157e308,
    "DBL_MIN": -1.7976931348623157e308,  # DSL convention: most-negative
    "FLT_MAX": 3.4028234663852886e38,
    "FLT_MIN": -3.4028234663852886e38,
}

_ZERO = {"int": 0, "long": 0, "float": 0.0, "double": 0.0, "bool": 0}

_KNOWN_FUNCS = {"abs": abs, "min": min, "max": max, "floor": math.floor,
                "ceil": math.ceil, "sqrt": math.sqrt, "fabs": abs}


#: What C treats as integers: Python ints (and bools) and NumPy's
#: integer and boolean scalars — an element of an int64 block is one.
_INTEGRAL = (int, np.integer, np.bool_)

#: C comparison operators: they yield the int 0 or 1.
_COMPARE = frozenset({"<", ">", "<=", ">=", "==", "!="})


def _c_div(a, b):
    """C division: truncates toward zero for two integers."""
    if isinstance(a, _INTEGRAL) and isinstance(b, _INTEGRAL):
        q = abs(a) // abs(b)
        return -q if (a < 0) != (b < 0) else q
    return a / b


def _c_mod(a, b):
    """C remainder: takes the sign of the dividend for integers."""
    if isinstance(a, _INTEGRAL) and isinstance(b, _INTEGRAL):
        return a - _c_div(a, b) * b
    return math.fmod(a, b)


class _Scope:
    """Tracks which bare names are legal in the current function."""

    def __init__(self, names: set[str]):
        self.names = set(names)

    def declare(self, name: str) -> None:
        self.names.add(name)

    def check(self, name: str) -> None:
        if name not in self.names:
            raise DslSemanticError(
                f"unknown name {name!r}; declare it as a local, parameter, "
                "param constant, or use a known constant "
                "(INT_MAX, DBL_MAX, ...)"
            )


class _FuncGen:
    """Generates the Python source of one DSL function."""

    def __init__(self, decl: A.FuncDecl, global_names: set[str]):
        self.decl = decl
        self.lines: list[str] = []
        self.scope = _Scope(global_names | {p.name for p in decl.params})
        self._loops: list[str] = []  # "for" | "while" nesting

    def emit(self, line: str, indent: int) -> None:
        self.lines.append("    " * indent + line)

    def generate(self) -> str:
        params = ", ".join(p.name for p in self.decl.params)
        self.emit(f"def {self.decl.name}({params}):", 0)
        body_start = len(self.lines)
        self.stmt_block(self.decl.body, 1)
        if len(self.lines) == body_start:
            self.emit("pass", 1)
        return "\n".join(self.lines)

    # -- statements ------------------------------------------------------------

    def stmt_block(self, block: A.Block, indent: int) -> None:
        for s in block.stmts:
            self.stmt(s, indent)

    def stmt(self, s: A.Stmt, indent: int) -> None:
        if isinstance(s, A.Block):
            if not s.stmts:
                self.emit("pass", indent)
            else:
                self.stmt_block(s, indent)
        elif isinstance(s, A.VarDecl):
            for name, size, init in s.names:
                self.scope.declare(name)
                if size is not None:
                    zero = _ZERO[s.ctype]
                    self.emit(
                        f"{name} = [{zero!r}] * ({self.expr(size)})", indent
                    )
                    if init is not None:
                        raise DslSemanticError(
                            f"array {name!r}: initializers on array "
                            "declarations are not supported"
                        )
                elif init is not None:
                    self.emit(f"{name} = {self.expr(init)}", indent)
                else:
                    self.emit(f"{name} = {_ZERO[s.ctype]!r}", indent)
        elif isinstance(s, A.ExprStmt):
            self.expr_stmt(s.expr, indent)
        elif isinstance(s, A.If):
            self.emit(f"if {self.test(s.cond)}:", indent)
            self.stmt_or_pass(s.then, indent + 1)
            if s.other is not None:
                self.emit("else:", indent)
                self.stmt_or_pass(s.other, indent + 1)
        elif isinstance(s, A.While):
            self.emit(f"while {self.test(s.cond)}:", indent)
            self._loops.append("while")
            self.stmt_or_pass(s.body, indent + 1)
            self._loops.pop()
        elif isinstance(s, A.For):
            if s.init is not None:
                self.stmt(s.init, indent)
            cond = self.test(s.cond) if s.cond is not None else "True"
            self.emit(f"while {cond}:", indent)
            self._loops.append("for")
            self.stmt_or_pass(s.body, indent + 1)
            self._loops.pop()
            if s.update is not None:
                self.expr_stmt(s.update, indent + 1)
        elif isinstance(s, A.Break):
            if not self._loops:
                raise DslSemanticError("'break' outside a loop")
            self.emit("break", indent)
        elif isinstance(s, A.Continue):
            if not self._loops:
                raise DslSemanticError("'continue' outside a loop")
            if self._loops[-1] == "for":
                raise DslSemanticError(
                    "'continue' inside a C-style 'for' is not supported "
                    "(the loop update would be skipped); rewrite as a "
                    "'while' loop"
                )
            self.emit("continue", indent)
        elif isinstance(s, A.Return):
            if s.value is None:
                self.emit("return", indent)
            else:
                self.emit(f"return {self.expr(s.value)}", indent)
        else:  # pragma: no cover - parser produces no other nodes
            raise DslSemanticError(f"unsupported statement {type(s).__name__}")

    def stmt_or_pass(self, s: A.Stmt, indent: int) -> None:
        before = len(self.lines)
        self.stmt(s, indent)
        if len(self.lines) == before:
            self.emit("pass", indent)

    def expr_stmt(self, e: A.Expr, indent: int) -> None:
        """Assignments / increments are legal here; plain calls too."""
        if isinstance(e, A.Assign):
            # flatten a = b = c
            targets = [e.target]
            value = e.value
            while isinstance(value, A.Assign):
                targets.append(value.target)
                value = value.value
            rhs = self.expr(value)
            lhs = " = ".join(self.lvalue(t) for t in targets)
            self.emit(f"{lhs} = {rhs}", indent)
        elif isinstance(e, A.AugAssign):
            self.emit(
                f"{self.lvalue(e.target)} = "
                f"{self._binary(e.op, self.lvalue(e.target), self.expr(e.value))}",
                indent,
            )
        elif isinstance(e, A.IncDec):
            delta = "+ 1" if e.op == "++" else "- 1"
            self.emit(
                f"{self.lvalue(e.target)} = {self.lvalue(e.target)} {delta}",
                indent,
            )
        elif isinstance(e, A.Call):
            self.emit(self.expr(e), indent)
        else:
            # e.g. a bare `x;` — harmless, still check names
            self.emit(f"{self.expr(e)}", indent)

    # -- expressions -----------------------------------------------------------

    def lvalue(self, e: A.Expr) -> str:
        if isinstance(e, A.Name):
            self.scope.check(e.ident)
            return e.ident
        if isinstance(e, A.Index):
            return f"{self.expr(e.base)}[{self.expr(e.index)}]"
        if isinstance(e, A.Field):
            return f"{self.expr(e.base)}.{e.name}"
        raise DslSemanticError(
            f"invalid assignment target {type(e).__name__}"
        )  # pragma: no cover - parser already rejects

    def _binary(self, op: str, left: str, right: str) -> str:
        if op == "/":
            return f"_c_div({left}, {right})"
        if op == "%":
            return f"_c_mod({left}, {right})"
        return f"({left} {op} {right})"

    def test(self, e: A.Expr) -> str:
        """``e`` where only its truth is read (conditions, operands of
        ``&&``/``||``/``!``): a comparison or logical operator may stay
        a Python bool here instead of being made the int C yields."""
        if isinstance(e, A.Binary):
            if e.op in _COMPARE:
                return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
            if e.op == "&&":
                return f"({self.test(e.left)} and {self.test(e.right)})"
            if e.op == "||":
                return f"({self.test(e.left)} or {self.test(e.right)})"
        if isinstance(e, A.Unary) and e.op == "!":
            return f"(not {self.test(e.operand)})"
        return self.expr(e)

    def expr(self, e: A.Expr) -> str:
        if isinstance(e, A.Num):
            return repr(e.value)
        if isinstance(e, A.BoolLit):
            return "1" if e.value else "0"
        if isinstance(e, A.Name):
            self.scope.check(e.ident)
            return e.ident
        if isinstance(e, A.Unary):
            if e.op == "!":
                return f"(0 if {self.test(e.operand)} else 1)"
            return f"({e.op}{self.expr(e.operand)})"
        if isinstance(e, A.Binary):
            if e.op in _COMPARE or e.op in ("&&", "||"):
                # C's 0/1, also for NumPy operands (whose comparisons
                # give np.bool_, which adds as logical or)
                return f"(1 if {self.test(e)} else 0)"
            return self._binary(e.op, self.expr(e.left), self.expr(e.right))
        if isinstance(e, A.Ternary):
            return (
                f"(({self.expr(e.then)}) if {self.test(e.cond)} "
                f"else ({self.expr(e.other)}))"
            )
        if isinstance(e, A.Index):
            return f"{self.expr(e.base)}[{self.expr(e.index)}]"
        if isinstance(e, A.Field):
            return f"{self.expr(e.base)}.{e.name}"
        if isinstance(e, A.Call):
            self.scope.check(e.func)
            args = ", ".join(self.expr(a) for a in e.args)
            return f"{e.func}({args})"
        if isinstance(e, (A.Assign, A.AugAssign, A.IncDec)):
            raise DslSemanticError(
                "assignments and ++/-- are statements in this DSL; "
                "they cannot be used inside expressions"
            )
        raise DslSemanticError(  # pragma: no cover
            f"unsupported expression {type(e).__name__}"
        )


#: C type -> the Python class its conversion returns unchanged.
_SAME = {"int": "int", "long": "int", "float": "float", "double": "float"}
#: Python's and NumPy's scalar classes: never a list or an array.
_SCALARS = frozenset({bool, int, float, *np.sctypeDict.values()})


class _NotLowerable(Exception):
    """The ``accum`` body uses a construct the block fold cannot run
    over locals; the message names it."""


def _declared(s: A.Stmt | None) -> set[str]:
    """The locals declared anywhere in statement ``s``."""
    if isinstance(s, A.VarDecl):
        return {name for name, _, _ in s.names}
    if isinstance(s, A.Block):
        return set().union(*map(_declared, s.stmts))
    if isinstance(s, A.If):
        return _declared(s.then) | _declared(s.other)
    if isinstance(s, A.While):
        return _declared(s.body)
    if isinstance(s, A.For):
        return _declared(s.init) | _declared(s.body)
    return set()


class _BlockGen(_FuncGen):
    """Generates the block fold of one ``accum`` function.

    ``s->f`` becomes the local ``<p>f_f`` (loaded once, written back
    once, in a ``finally`` so a raise leaves the record as the
    per-element calls would); an assignment to a scalar field is
    converted as :class:`StateRecord` converts it; ``return`` ends the
    element (``continue``, or a flag and ``break`` out of DSL loops).
    ``<p>`` is a prefix no identifier of the operator contains."""

    def __init__(
        self,
        decl: A.FuncDecl,
        global_names: set[str],
        fields: Mapping[str, str | None],
        prefix: str,
    ):
        super().__init__(decl, global_names)
        self.fields = fields  # name -> C type of a scalar, None: array
        self.p = prefix
        self.state = decl.params[0].name
        self.used: dict[str, None] = {}  # fields touched, in order
        self.loop_returns = 0
        # C block scoping of locals: a local read outside the block that
        # declares it might be unbound in one call and not the next
        self.declared = _declared(decl.body)
        self.blocks: list[set[str]] = [set()]

    def generate(self) -> str:
        p = self.p
        body_start = len(self.lines)
        self.stmt_block(self.decl.body, 3)
        body = self.lines[body_start:] or ["            pass"]
        del self.lines[body_start:]
        inputs = [q.name for q in self.decl.params[1:]]
        self.emit(f"def {p}accum_block({p}state, {p}values):", 0)
        self.emit(f"{p}f = {p}state._fields", 1)
        for f in self.used:
            self.emit(f"{p}f_{f} = {p}f[{f!r}]", 1)
        self.emit("try:", 1)
        if len(inputs) == 1:
            self.emit(f"for {inputs[0]} in {p}values:", 2)
        else:
            self.emit(f"for {p}x in {p}values:", 2)
            self.emit(
                f"{', '.join(inputs)}, = {p}components({p}x, "
                f"{len(inputs)}, {self.decl.name!r})",
                3,
            )
        if self.loop_returns:
            self.emit(f"{p}ret = 0", 3)
        self.lines.extend(body)
        self.emit("finally:", 1)
        for f in self.used:
            self.emit(f"{p}f[{f!r}] = {p}f_{f}", 2)
        if not self.used:
            self.emit("pass", 2)
        self.emit(f"return {p}state", 1)
        return "\n".join(self.lines)

    # -- where the state and the locals are ------------------------------------

    def field(self, e: A.Expr) -> str | None:
        """The local holding ``e`` if ``e`` is ``s->f``, else None."""
        if not (
            isinstance(e, A.Field)
            and isinstance(e.base, A.Name)
            and e.base.ident == self.state
        ):
            return None
        if e.name not in self.fields:
            raise _NotLowerable(f"state field {e.name!r} is not declared")
        self.used[e.name] = None
        return f"{self.p}f_{e.name}"

    def name(self, ident: str) -> None:
        if ident == self.state:
            raise _NotLowerable(
                f"the state {ident!r} used whole (passed to a function, "
                "or not as a field access)"
            )
        if ident in self.declared and not any(ident in b for b in self.blocks):
            raise _NotLowerable(
                f"local {ident!r} used outside the block that declares it"
            )

    def lvalue(self, e: A.Expr) -> str:
        local = self.field(e)
        if local is not None:
            return local
        if isinstance(e, A.Name):
            self.name(e.ident)
        return super().lvalue(e)

    def expr(self, e: A.Expr) -> str:
        local = self.field(e)
        if local is not None:
            return local
        if isinstance(e, A.Name):
            self.name(e.ident)
        return super().expr(e)

    # -- statements ---------------------------------------------------------------

    def stmt(self, s: A.Stmt, indent: int) -> None:
        if isinstance(s, A.Return):
            if s.value is not None:
                self.emit(self.expr(s.value), indent)  # for its raises
            if self._loops:
                self.loop_returns += 1
                self.emit(f"{self.p}ret = 1", indent)
                self.emit("break", indent)
            else:
                self.emit("continue", indent)
        elif isinstance(s, (A.While, A.For)):
            before = self.loop_returns
            super().stmt(s, indent)
            if self.loop_returns != before:
                self.emit(f"if {self.p}ret:", indent)
                self.emit("break" if self._loops else "continue", indent + 1)
        elif isinstance(s, A.VarDecl):
            super().stmt(s, indent)
            self.blocks[-1].update(name for name, _, _ in s.names)
        elif isinstance(s, A.Block):
            self.blocks.append(set())
            super().stmt(s, indent)
            self.blocks.pop()
        else:
            super().stmt(s, indent)

    def stmt_or_pass(self, s: A.Stmt, indent: int) -> None:
        self.blocks.append(set())
        super().stmt_or_pass(s, indent)
        self.blocks.pop()

    def expr_stmt(self, e: A.Expr, indent: int) -> None:
        if isinstance(e, A.Assign):
            targets = [e.target]
            value = e.value
            while isinstance(value, A.Assign):
                targets.append(value.target)
                value = value.value
        elif isinstance(e, (A.AugAssign, A.IncDec)):
            targets = [e.target]
        else:
            targets = []
        ctypes = [self.scalar_type(t) for t in targets]
        if not any(ctypes):
            super().expr_stmt(e, indent)
            return
        # Evaluate once, then store into each target in order, each
        # converted to its own field's type (Python's ``a = b = v``).
        if isinstance(e, A.Assign):
            rhs = self.expr(value)
        elif isinstance(e, A.AugAssign):
            rhs = self._binary(e.op, self.lvalue(e.target), self.expr(e.value))
        else:
            rhs = f"{self.lvalue(e.target)} {'+' if e.op == '++' else '-'} 1"
        tmp = f"{self.p}t"
        if len(targets) == 1 and rhs.isidentifier():
            tmp = rhs  # a plain variable: read it where it is
        else:
            self.emit(f"{tmp} = {rhs}", indent)
        for target, ctype in zip(targets, ctypes):
            self.emit(f"{self.lvalue(target)} = {self.store(ctype, tmp)}", indent)

    def scalar_type(self, e: A.Expr) -> str | None:
        """The C type of ``e`` if it is a scalar field ``s->f``."""
        if self.field(e) is None:
            return None
        return self.fields[e.name]

    def store(self, ctype: str | None, value: str) -> str:
        """``value`` as an assignment to a field of C type ``ctype``
        stores it: ``StateRecord``'s conversion, inlined for scalars."""
        if ctype is None:
            return value
        v, p = value, self.p
        # a scalar converts directly; anything else (a list or an array
        # stays as it is) goes through StateRecord's own conversion
        stored = (
            f"{p}to_{ctype}({v}) if {v}.__class__ in {p}scalars "
            f"else {p}store_{ctype}({v})"
        )
        if ctype in _SAME:
            # int()/float() of an exact int/float returns it unchanged
            stored = f"{v} if {v}.__class__ is {_SAME[ctype]} else {stored}"
        return f"({stored})"


def _fresh_prefix(taken: str) -> str:
    """A prefix for the block fold's own variables that no identifier in
    ``taken`` (the generated source, the namespace's names) contains."""
    prefix = "_b_"
    while prefix in taken:
        prefix += "_"
    return prefix


def _block_fold(
    decl: A.OperatorDecl,
    global_names: set[str],
    source: str,
    namespace: dict[str, Any],
) -> tuple[Any, str, str | None]:
    """Generate and compile the block fold of ``decl``'s ``accum``
    (``source`` is every function's generated code, which names every
    identifier the operator uses): ``(function or None, its source, why
    there is none or None)``."""
    fn = decl.functions.get("accum")
    if fn is None or len(fn.params) < 2 or fn.params[0].ctype != "state":
        return None, "", "no accum(state, ...) function"
    fields = {
        f.name: (f.ctype if f.array_size is None else None)
        for f in decl.state_fields
    }
    prefix = _fresh_prefix(" ".join([source, *namespace]))
    try:
        source = _BlockGen(fn, global_names, fields, prefix).generate()
    except _NotLowerable as exc:
        return None, "", str(exc)
    for ctype, convert in _CONVERT.items():
        namespace[f"{prefix}to_{ctype}"] = convert
        namespace[f"{prefix}store_{ctype}"] = _STORE[ctype]
    namespace[f"{prefix}components"] = input_components
    namespace[f"{prefix}scalars"] = _SCALARS
    exec(  # noqa: S102 - executing our own generated code
        compile(source, f"<rsmpi:{decl.name}:accum_block>", "exec"), namespace
    )
    return namespace[f"{prefix}accum_block"], source, None


class CompiledOperator:
    """The output of the preprocessor: generated source + namespace."""

    def __init__(
        self,
        decl: A.OperatorDecl,
        source: str,
        namespace: dict[str, Any],
        params: dict[str, Any],
        accum_block: Any = None,
        block_source: str = "",
        block_fallback: str | None = None,
    ):
        self.decl = decl
        self.source = source
        self.namespace = namespace
        self.params = params
        #: ``accum`` over a whole block, ``(state, values) -> state``
        #: (None when the body cannot be lowered; see ``block_fallback``)
        self.accum_block = accum_block
        self.block_source = block_source
        #: the construct that kept ``accum`` on the per-element loop
        self.block_fallback = block_fallback

    @property
    def name(self) -> str:
        return self.decl.name


def _const_eval(e: A.Expr, env: Mapping[str, Any]) -> Any:
    """Evaluate a compile-time-constant expression (param defaults,
    state array sizes)."""
    if isinstance(e, A.Num):
        return e.value
    if isinstance(e, A.BoolLit):
        return 1 if e.value else 0
    if isinstance(e, A.Name):
        if e.ident in env:
            return env[e.ident]
        raise DslSemanticError(
            f"constant expression references unknown name {e.ident!r}"
        )
    if isinstance(e, A.Unary):
        v = _const_eval(e.operand, env)
        return {"-": lambda: -v, "+": lambda: v, "!": lambda: 0 if v else 1,
                "~": lambda: ~v}[e.op]()
    if isinstance(e, A.Binary):
        a, b = _const_eval(e.left, env), _const_eval(e.right, env)
        if e.op == "/":
            return _c_div(a, b)
        if e.op == "%":
            return _c_mod(a, b)
        if e.op == "&&":
            return 1 if (a and b) else 0
        if e.op == "||":
            return 1 if (a or b) else 0
        return eval(f"a {e.op} b", {}, {"a": a, "b": b})  # noqa: S307 - fixed op set
    raise DslSemanticError(
        f"unsupported constant expression {type(e).__name__}"
    )


def generate_python(
    decl: A.OperatorDecl, params: Mapping[str, Any] | None = None
) -> CompiledOperator:
    """Compile a parsed operator declaration to Python functions.

    ``params`` overrides the declaration's ``param`` constants (like
    instantiating Chapel's ``mink(integer, 10)`` with a concrete k).
    """
    # Resolve param constants.
    env: dict[str, Any] = dict(C_CONSTANTS)
    overrides = dict(params or {})
    for p in decl.params:
        if p.name in overrides:
            env[p.name] = overrides.pop(p.name)
        elif p.default is not None:
            env[p.name] = _const_eval(p.default, env)
        else:
            raise DslSemanticError(
                f"param {p.name!r} has no default; pass a value via "
                "compile_operator(..., params={...})"
            )
    if overrides:
        raise DslSemanticError(
            f"unknown params passed: {sorted(overrides)}; declared params: "
            f"{[p.name for p in decl.params]}"
        )

    global_names = (
        set(env) | set(_KNOWN_FUNCS) | set(decl.functions)
    )
    sources = []
    for fn in decl.functions.values():
        sources.append(_FuncGen(fn, global_names).generate())
    source = "\n\n".join(sources)

    namespace: dict[str, Any] = dict(env)
    namespace.update(_KNOWN_FUNCS)
    namespace["_c_div"] = _c_div
    namespace["_c_mod"] = _c_mod
    exec(  # noqa: S102 - executing our own generated code
        compile(source, f"<rsmpi:{decl.name}>", "exec"), namespace
    )
    block = _block_fold(decl, global_names, source, namespace)
    return CompiledOperator(decl, source, namespace, dict(env), *block)
