"""Hypothesis fuzzing of the RSMPI DSL compiler.

Generates random arithmetic/conditional accumulate bodies, compiles
them through the full lexer/parser/codegen pipeline, and checks the
compiled function against an independently interpreted reference —
catching precedence, short-circuit and C-semantics miscompiles.  Inputs
are drawn as Python ints and as NumPy scalars (what an integer array's
elements are); the reference computes on Python ints, so both must get
C's answer.  The same bodies, compiled into whole operators, check the
generated block fold against the per-element ``accum`` loop.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.operator import ReduceScanOp
from repro.rsmpi import compile_operator
from repro.rsmpi.preprocessor import parse_operator
from repro.rsmpi.preprocessor.codegen import generate_python

COMMON = settings(max_examples=60, deadline=None)


def _ref_div(x, y):
    """C integer division, on Python ints: truncates toward zero."""
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


def _ref_mod(x, y):
    """C remainder, on Python ints: the sign of the dividend."""
    return x - _ref_div(x, y) * y


#: A small int, drawn as a Python int or as a NumPy integer scalar.
scalars = st.integers(-10, 10).flatmap(
    lambda v: st.sampled_from([v, np.int64(v), np.int32(v)])
)


# --- random C expression generator -------------------------------------------
#
# Expressions are built as (source_text, python_eval_fn) pairs so the
# reference semantics are computed without going through our compiler.

def _leaf():
    return st.one_of(
        st.integers(-20, 20).map(lambda v: (str(v) if v >= 0 else f"(0 - {-v})",
                                            lambda env, v=v: v)),
        st.just(("i", lambda env: env["i"])),
        st.just(("a", lambda env: env["a"])),
    )


def _binary(children):
    ops = {
        "+": lambda x, y: x + y,
        "-": lambda x, y: x - y,
        "*": lambda x, y: x * y,
        "/": _ref_div,
        "%": _ref_mod,
        "<": lambda x, y: int(x < y),
        ">": lambda x, y: int(x > y),
        "<=": lambda x, y: int(x <= y),
        ">=": lambda x, y: int(x >= y),
        "==": lambda x, y: int(x == y),
        "!=": lambda x, y: int(x != y),
        "&&": lambda x, y: 1 if (x and y) else 0,
        "||": lambda x, y: 1 if (x or y) else 0,
    }

    def build(args):
        (ltext, lfn), (rtext, rfn), op = args
        fn = ops[op]
        guarded = op in ("/", "%")

        def ev(env):
            lv, rv = lfn(env), rfn(env)
            if guarded and rv == 0:
                return 0
            return fn(lv, rv)

        if guarded:
            # guard division in the DSL text the same way
            text = f"(({rtext}) == 0 ? 0 : ({ltext}) {op} ({rtext}))"
        else:
            text = f"(({ltext}) {op} ({rtext}))"
        return (text, ev)

    return st.tuples(children, children, st.sampled_from(sorted(ops))).map(build)


def _ternary(children):
    def build(args):
        (ctext, cfn), (ttext, tfn), (etext, efn) = args

        def ev(env):
            return tfn(env) if cfn(env) else efn(env)

        return (f"(({ctext}) ? ({ttext}) : ({etext}))", ev)

    return st.tuples(children, children, children).map(build)


def _unary(children):
    def build(arg):
        text, fn = arg
        return (f"(!({text}))", lambda env: 0 if fn(env) else 1)

    return children.map(build)


expressions = st.recursive(
    _leaf(),
    lambda children: st.one_of(
        _binary(children), _ternary(children), _unary(children)
    ),
    max_leaves=12,
)


def _compile_accum(expr_text: str):
    src = f"""
    rsmpi operator fuzz {{
      state {{ int a; }}
      void accum(state s, int i) {{
        int a;
        a = s->a;
        s->a = {expr_text};
      }}
      void combine(state s1, state s2) {{ s1->a += s2->a; }}
    }}
    """
    compiled = generate_python(parse_operator(src))
    return compiled.namespace["accum"]


class _S:
    def __init__(self, a):
        self.a = a


class TestDSLFuzz:
    @COMMON
    @given(expr=expressions, i=scalars, a0=scalars)
    def test_expression_semantics_match_reference(self, expr, i, a0):
        text, ref = expr
        accum = _compile_accum(text)
        s = _S(a0)
        accum(s, i)
        expected = ref({"i": int(i), "a": int(a0)})
        assert s.a == expected, f"expr: {text}, i={i!r}, a={a0!r}"

    @COMMON
    @given(
        expr=expressions,
        vals=st.lists(st.integers(-10, 10), max_size=12),
        as_array=st.booleans(),
    )
    def test_block_fold_matches_the_loop(self, expr, vals, as_array):
        text, _ = expr
        op = compile_operator(f"""
        rsmpi operator fuzz {{
          state {{ int a; int n; int last; }}
          void accum(state s, int i) {{
            int a;
            a = s->n;
            s->a += {text};
            s->last = {text};
            s->n += 1;
          }}
          void combine(state s1, state s2) {{ s1->a += s2->a; }}
        }}
        """)
        assert op.tile_exact  # the body was lowered, not left on the loop
        values = np.array(vals, dtype=np.int64) if as_array else vals
        block = op.accum_block(op.ident(), values)
        loop = ReduceScanOp.accum_block(op, op.ident(), values)
        assert pickle.dumps(block._fields) == pickle.dumps(loop._fields), text

    @COMMON
    @given(
        bounds=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        init=st.integers(-5, 5),
    )
    def test_for_loop_semantics(self, bounds, init):
        lo, span = bounds
        hi = lo + span
        src = f"""
        rsmpi operator fz {{
          state {{ int a; }}
          void accum(state s, int i) {{
            int j;
            for (j = {lo}; j < {hi}; j++)
              s->a += j * i;
          }}
          void combine(state s1, state s2) {{ s1->a += s2->a; }}
        }}
        """
        accum = generate_python(parse_operator(src)).namespace["accum"]
        s = _S(init)
        accum(s, 3)
        assert s.a == init + sum(j * 3 for j in range(lo, hi))

    @COMMON
    @given(vals=st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    def test_compiled_running_max(self, vals):
        src = """
        rsmpi operator rmax {
          state { int m; int seen; }
          void accum(state s, int i) {
            if (!s->seen || i > s->m) s->m = i;
            s->seen = 1;
          }
          void combine(state s1, state s2) {
            if (s2->seen && (!s1->seen || s2->m > s1->m)) s1->m = s2->m;
            s1->seen = s1->seen || s2->seen;
          }
        }
        """
        ns = generate_python(parse_operator(src)).namespace

        class S2:
            m = 0
            seen = 0

        s = S2()
        for v in vals:
            ns["accum"](s, v)
        assert s.m == max(vals)
