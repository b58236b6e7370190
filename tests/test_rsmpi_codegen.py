"""Tests for DSL code generation: C semantics, scoping, param constants,
and the generated block fold."""

import pickle

import numpy as np
import pytest

from repro import global_reduce, spmd_run
from repro.core.kernels import KernelCache
from repro.core.operator import ReduceScanOp
from repro.errors import DslSemanticError, OperatorError
from repro.obs import Tracer
from repro.obs.export import profile_counts
from repro.rsmpi import RSMPI_Reduceall, compile_operator, compile_operator_spec
from repro.rsmpi.library import OPERATOR_SOURCES, load_operator
from repro.rsmpi.preprocessor.codegen import (
    C_CONSTANTS,
    _c_div,
    _c_mod,
    generate_python,
)
from repro.rsmpi.preprocessor.parser import parse_operator


def compile_fns(src: str, params=None):
    return generate_python(parse_operator(src), params)


def _wrap_fn(body: str, params: str = "state s, int i") -> str:
    return f"""
    rsmpi operator t {{
      state {{ int a; int b; }}
      void accum({params}) {{ {body} }}
      void combine(state s1, state s2) {{ ; }}
    }}
    """


class State:
    """Loose stand-in for StateRecord in codegen-only tests."""

    def __init__(self, **kw):
        self.__dict__.update(kw)


class TestCSemantics:
    def test_c_div_truncates_toward_zero(self):
        assert _c_div(7, 2) == 3
        assert _c_div(-7, 2) == -3  # Python's // would give -4
        assert _c_div(7, -2) == -3
        assert _c_div(7.0, 2) == 3.5  # floats divide normally

    def test_c_mod_sign_of_dividend(self):
        assert _c_mod(7, 3) == 1
        assert _c_mod(-7, 3) == -1  # Python's % would give 2
        assert _c_mod(7, -3) == 1

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, bool])
    def test_numpy_integers_are_integers(self, kind):
        """An element of an integer array is a NumPy scalar, not an int:
        ``/`` must still truncate and ``%`` must not become fmod."""
        a = kind(7) if kind is not bool else True
        assert _c_div(a, 2) == _c_div(int(a), 2)
        assert _c_mod(a, 2) == _c_mod(int(a), 2)
        if kind in (np.int64, np.int32):
            assert _c_div(kind(-7), 2) == -3
            assert _c_mod(kind(-7), np.int64(3)) == -1
            assert _c_div(kind(-7), 2.0) == -3.5

    def test_integer_division_same_for_list_and_ndarray(self):
        op = compile_operator("""
        rsmpi operator halves {
          state { double h; }
          void accum(state s, int i) { s->h += i / 2; }
          void combine(state s1, state s2) { s1->h += s2->h; }
          double generate(state s) { return s->h; }
        }
        """)
        for values in ([3, 5, -3], np.array([3, 5, -3])):
            out = spmd_run(lambda c: global_reduce(c, op, values), 2).returns
            assert out == [4.0, 4.0], type(values)  # C: 1 + 2 - 1, twice

    def test_comparisons_yield_ints_for_numpy_operands(self):
        """NumPy comparisons give np.bool_, which adds as logical or."""
        c = compile_fns(_wrap_fn("s->a = (i > 0) + (i > 1); s->b = -(i > 0);"))
        for i in (5, np.int64(5)):
            s = State(a=None, b=None)
            c.namespace["accum"](s, i)
            assert (s.a, s.b) == (2, -1)

    def test_division_in_dsl(self):
        c = compile_fns(_wrap_fn("s->a = -7 / 2; s->b = -7 % 3;"))
        s = State(a=0, b=0)
        c.namespace["accum"](s, 0)
        assert s.a == -3 and s.b == -1

    def test_logical_ops_yield_ints_and_short_circuit(self):
        c = compile_fns(
            _wrap_fn("s->a = (i > 0) && (10 / i > 1); s->b = (i == 0) || (i > 2);")
        )
        s = State(a=None, b=None)
        c.namespace["accum"](s, 0)  # 10/0 must not be evaluated
        assert s.a == 0 and s.b == 1
        c.namespace["accum"](s, 5)
        assert s.a == 1 and s.b == 1

    def test_not_operator(self):
        c = compile_fns(_wrap_fn("s->a = !i; s->b = !!i;"))
        s = State(a=None, b=None)
        c.namespace["accum"](s, 7)
        assert (s.a, s.b) == (0, 1)

    def test_ternary(self):
        c = compile_fns(_wrap_fn("s->a = i > 3 ? 100 : 200;"))
        s = State(a=0)
        c.namespace["accum"](s, 5)
        assert s.a == 100
        c.namespace["accum"](s, 1)
        assert s.a == 200

    def test_compound_assignment_ops(self):
        c = compile_fns(
            _wrap_fn("s->a += i; s->a *= 2; s->a -= 1; s->b = 12; s->b &= 10;")
        )
        s = State(a=1, b=0)
        c.namespace["accum"](s, 4)
        assert s.a == 9 and s.b == 8

    def test_for_loop_with_incdec(self):
        c = compile_fns(
            _wrap_fn("int j; s->a = 0; for (j = 0; j < i; j++) s->a += j;")
        )
        s = State(a=None)
        c.namespace["accum"](s, 5)
        assert s.a == 10

    def test_while_loop(self):
        c = compile_fns(
            _wrap_fn("s->a = 0; while (i > 0) { s->a += i; i -= 1; }")
        )
        s = State(a=None)
        c.namespace["accum"](s, 4)
        assert s.a == 10

    def test_local_array_declaration(self):
        c = compile_fns(
            _wrap_fn("int tmp[3]; tmp[0] = i; tmp[2] = tmp[0] * 2; s->a = tmp[2];")
        )
        s = State(a=0)
        c.namespace["accum"](s, 6)
        assert s.a == 12

    def test_true_false_literals(self):
        c = compile_fns(_wrap_fn("s->a = true; s->b = false;"))
        s = State(a=None, b=None)
        c.namespace["accum"](s, 0)
        assert (s.a, s.b) == (1, 0)

    def test_builtin_math_functions(self):
        c = compile_fns(_wrap_fn("s->a = abs(-5) + max(2, 3) + min(7, i);"))
        s = State(a=0)
        c.namespace["accum"](s, 1)
        assert s.a == 5 + 3 + 1


class TestTypedLocals:
    """A value stored in a declared scalar local takes the local's C type,
    as a state field's does, on the per-element and the block path."""

    HIST = """
    rsmpi operator hist {
      state { int h[4]; }
      void accum(state s, double x) { int j; j = x; s->h[j] += 1; }
      void combine(state s1, state s2) {
        int k;
        for (k = 0; k < 4; k++) { s1->h[k] += s2->h[k]; }
      }
      int generate(state s) { return s->h[0] * 1000 + s->h[3]; }
    }
    """
    #: C truncates toward zero: 1, 0, 3, 0, 0, 2, 3 (a floor would send
    #: -0.5 and -0.9 to h[-1], the last bin).
    VALUES = [1.7, 0.2, 3.9, -0.5, -0.9, 2.0, 3.0]

    @pytest.mark.parametrize("as_array", [False, True])
    def test_double_into_int_local_truncates_toward_zero(self, as_array):
        op = compile_operator(self.HIST)
        values = np.array(self.VALUES) if as_array else list(self.VALUES)
        loop = ReduceScanOp.accum_block(op, op.ident(), values)
        block = op.accum_block(op.ident(), values)
        assert loop.h == block.h == [3, 1, 1, 2]
        out = spmd_run(lambda c: global_reduce(c, op, values), 2).returns
        assert out == [6004, 6004]

    @pytest.mark.parametrize("as_array", [False, True])
    def test_int_into_double_local_divides_as_a_double(self, as_array):
        op = compile_operator("""
        rsmpi operator halves {
          state { double h; }
          void accum(state s, int i) { double d; d = i; s->h += d / 2; }
          void combine(state s1, state s2) { s1->h += s2->h; }
          double generate(state s) { return s->h; }
        }
        """)
        values = np.array([3, 5, -3]) if as_array else [3, 5, -3]
        out = spmd_run(lambda c: global_reduce(c, op, values), 2).returns
        assert out == [5.0, 5.0]  # 1.5 + 2.5 + 1.0, not 1 + 2 - 1

    def test_initializers_compound_and_chained_stores_convert(self):
        c = compile_fns(_wrap_fn(
            "int a = s->d; long b; double e; int f; "
            "b = e = s->d; f = 10; f /= 4; f += 0.9; s->a = a + b + f; "
            "s->b = e;", params="state s, int i",
        ))
        s = State(a=None, b=None, d=-7.6)
        c.namespace["accum"](s, 0)
        # a = -7, b = -7 (from -7.6), e = -7.6; f: 10 / 4 = 2, 2.9 -> 2
        assert (s.a, s.b) == (-12, -7.6)

    def test_counters_and_literals_are_not_converted(self):
        compiled = generate_python(parse_operator(self.HIST))
        assert "k = k + 1" in compiled.source  # k++ stays an int
        assert "k = 0" in compiled.source
        assert compiled.source.count("_c_store_int") == 1  # j = x only
        assert compiled.block_source.count("_to_int(x)") == 1


class TestIntParameters:
    """An argument passed to an ``int`` parameter converts at the call, as
    in C: a double truncates toward zero, an integer stays as it is."""

    HIST = """
    rsmpi operator hist {
      state { int h[4]; }
      void accum(state s, int i) { s->h[i] += 1; }
      void combine(state s1, state s2) {
        int k;
        for (k = 0; k < 4; k++) { s1->h[k] += s2->h[k]; }
      }
      int generate(state s) { return s->h[1] * 100 + s->h[2]; }
    }
    """

    @pytest.mark.parametrize("as_array", [False, True])
    def test_double_argument_indexes_as_an_int(self, as_array):
        op = compile_operator(self.HIST)
        values = np.array([1.7, 2.2, 1.0]) if as_array else [1.7, 2.2, 1.0]
        loop = ReduceScanOp.accum_block(op, op.ident(), values)
        block = op.accum_block(op.ident(), values)
        assert loop.h == block.h == [0, 2, 1, 0]
        out = spmd_run(lambda c: RSMPI_Reduceall(op, values, c), 2).returns
        assert out == [402, 402]

    def test_negative_doubles_truncate_toward_zero(self):
        op = compile_operator("""
        rsmpi operator last {
          state { int v; }
          void ident(state s) { s->v = 0; }
          void accum(state s, int i) { s->v = s->v * 10 + i; }
          void combine(state s1, state s2) { s1->v = s2->v; }
          int generate(state s) { return s->v; }
        }
        """)
        values = np.array([-1.9, 2.9, -0.5])
        loop = ReduceScanOp.accum_block(op, op.ident(), values)
        block = op.accum_block(op.ident(), values)
        assert loop.v == block.v == (-1 * 10 + 2) * 10 + 0

    def test_row_component_converts_by_its_parameter(self):
        op = compile_operator("""
        rsmpi operator pick {
          state { double w[3]; }
          void ident(state s) { int k; for (k = 0; k < 3; k++) s->w[k] = 0.0; }
          void accum(state s, double x, int i) { s->w[i] += x; }
          void combine(state s1, state s2) {
            int k;
            for (k = 0; k < 3; k++) s1->w[k] += s2->w[k];
          }
          double generate(state s) { return s->w[2]; }
        }
        """)
        rows = np.array([[0.5, 2.6], [1.5, 0.0], [2.0, 2.0]])
        loop = ReduceScanOp.accum_block(op, op.ident(), rows)
        block = op.accum_block(op.ident(), rows)
        assert loop.w == block.w == [1.5, 0.0, 2.5]

    @pytest.mark.parametrize("values", [
        np.arange(-50, 50, dtype=np.int64), np.linspace(-3, 3, 101),
        [3, -2, 7.5, 0.25],
    ], ids=["int64", "float64", "list"])
    def test_library_folds_stay_pickle_identical(self, values):
        for name in sorted(OPERATOR_SOURCES):
            op = load_operator(name)
            if type(op).accum_block is ReduceScanOp.accum_block:
                continue   # left on the per-element loop
            try:
                loop = ReduceScanOp.accum_block(op, op.ident(), values)
            except Exception:
                continue   # an operator that does not take these inputs
            block = op.accum_block(op.ident(), values)
            assert pickle.dumps(loop) == pickle.dumps(block), name

    def test_integer_blocks_skip_the_conversion(self):
        c = generate_python(parse_operator(LISTING_8))
        assert "_c_arg_int(i)" in c.source   # the per-element call converts
        head, loop = c.block_source.split("try:")
        assert "integer_block" in head       # decided once per block
        assert "arguments" not in loop       # the int64 fold's loop is as it was


class TestConstants:
    def test_c_limits_available(self):
        assert C_CONSTANTS["INT_MAX"] == 2**31 - 1
        c = compile_fns(_wrap_fn("s->a = INT_MAX; s->b = INT_MIN;"))
        s = State(a=0, b=0)
        c.namespace["accum"](s, 0)
        assert s.a == 2**31 - 1 and s.b == -(2**31)

    def test_param_default_and_override(self):
        src = """
        rsmpi operator t {
          param int k = 4;
          state { int a; }
          void accum(state s, int i) { s->a = k * i; }
          void combine(state s1, state s2) { ; }
        }
        """
        c1 = compile_fns(src)
        s = State(a=0)
        c1.namespace["accum"](s, 2)
        assert s.a == 8
        c2 = compile_fns(src, params={"k": 10})
        c2.namespace["accum"](s, 2)
        assert s.a == 20

    def test_param_without_default_requires_value(self):
        src = """
        rsmpi operator t {
          param int k;
          state { int a; }
          void accum(state s, int i) { s->a = k; }
          void combine(state s1, state s2) { ; }
        }
        """
        with pytest.raises(DslSemanticError, match="no default"):
            compile_fns(src)
        c = compile_fns(src, params={"k": 3})
        assert c.params["k"] == 3

    def test_unknown_param_rejected(self):
        with pytest.raises(DslSemanticError, match="unknown params"):
            compile_fns(_wrap_fn("s->a = 0;"), params={"nope": 1})

    def test_param_expression_default(self):
        src = """
        rsmpi operator t {
          param int k = 2 * 3 + 1;
          state { int a; }
          void accum(state s, int i) { s->a = k; }
          void combine(state s1, state s2) { ; }
        }
        """
        assert compile_fns(src).params["k"] == 7


class TestScoping:
    def test_unknown_name_rejected_at_compile_time(self):
        with pytest.raises(DslSemanticError, match="unknown name"):
            compile_fns(_wrap_fn("s->a = undeclared;"))

    def test_locals_scoped_to_function(self):
        src = """
        rsmpi operator t {
          state { int a; }
          void accum(state s, int i) { int local_x; local_x = i; s->a = local_x; }
          void combine(state s1, state s2) { s1->a = local_x; }
        }
        """
        with pytest.raises(DslSemanticError, match="unknown name"):
            compile_fns(src)

    def test_sibling_function_callable(self):
        src = """
        rsmpi operator t {
          state { int a; }
          void helper(state s, int v) { s->a += v; }
          void accum(state s, int i) { helper(s, i); helper(s, i); }
          void combine(state s1, state s2) { ; }
        }
        """
        c = compile_fns(src)
        s = State(a=0)
        c.namespace["accum"](s, 3)
        assert s.a == 6

    def test_assignment_inside_expression_rejected(self):
        with pytest.raises(DslSemanticError, match="statements"):
            compile_fns(_wrap_fn("s->a = (s->b = 1) + 2;"))

    def test_source_is_inspectable(self):
        c = compile_fns(_wrap_fn("s->a = i;"))
        assert "def accum(s, i):" in c.source


class TestBreakContinue:
    def test_break_in_for(self):
        c = compile_fns(
            _wrap_fn(
                "int j; s->a = 0; "
                "for (j = 0; j < 100; j++) { if (j == i) break; s->a += 1; }"
            )
        )
        s = State(a=None)
        c.namespace["accum"](s, 7)
        assert s.a == 7

    def test_break_in_while(self):
        c = compile_fns(
            _wrap_fn("s->a = 0; while (true) { s->a += 1; if (s->a >= i) break; }")
        )
        s = State(a=None)
        c.namespace["accum"](s, 4)
        assert s.a == 4

    def test_continue_in_while(self):
        c = compile_fns(
            _wrap_fn(
                "int j; j = 0; s->a = 0; "
                "while (j < i) { j += 1; if (j % 2 == 0) continue; s->a += j; }"
            )
        )
        s = State(a=None)
        c.namespace["accum"](s, 6)
        assert s.a == 1 + 3 + 5

    def test_continue_in_for_rejected(self):
        with pytest.raises(DslSemanticError, match="continue"):
            compile_fns(
                _wrap_fn(
                    "int j; for (j = 0; j < i; j++) { continue; }"
                )
            )

    def test_break_outside_loop_rejected(self):
        with pytest.raises(DslSemanticError, match="break"):
            compile_fns(_wrap_fn("break;"))

    def test_nested_loops_break_inner_only(self):
        c = compile_fns(
            _wrap_fn(
                "int j, kk; s->a = 0; "
                "for (j = 0; j < 3; j++) { "
                "  kk = 0; "
                "  while (true) { kk += 1; if (kk >= 2) break; } "
                "  s->a += kk; "
                "}"
            )
        )
        s = State(a=None)
        c.namespace["accum"](s, 0)
        assert s.a == 6


# -- the generated block fold ---------------------------------------------------

LISTING_8 = """
rsmpi operator sorted {
  non-commutative
  state { int first, last; int status; }
  void ident(state s) { s->first = INT_MAX; s->last = INT_MIN; s->status = 1; }
  void pre_accum(state s, int i) { s->first = i; }
  void accum(state s, int i) { if (s->last > i) s->status = 0; s->last = i; }
  void combine(state s1, state s2) {
    s1->status &= s2->status && (s1->last <= s2->first);
    s1->last = s2->last;
  }
  int generate(state s) { return s->status; }
}
"""


def _op(accum: str, state: str = "int a; int b; int v[4]; double d;",
        extra: str = ""):
    return compile_operator(f"""
    rsmpi operator t {{
      state {{ {state} }}
      {extra}
      void accum({accum}
      void combine(state s1, state s2) {{ ; }}
    }}
    """)


def assert_block_equals_loop(op, values):
    """The generated fold and the per-element ``accum`` loop leave the
    same state, byte for byte (pickled: value *and* type of every
    field and array element)."""
    block = op.accum_block(op.ident(), values)
    loop = ReduceScanOp.accum_block(op, op.ident(), values)
    assert pickle.dumps(block._fields) == pickle.dumps(loop._fields), (
        block, loop)


def _blocks(rng, n):
    """An int block of length ``n`` as an int64 array, an int32 array,
    a float array and a list."""
    arr = rng.integers(-50, 50, n)
    return [arr, arr.astype(np.int32), arr * 0.75, arr.tolist()]


#: Bodies (with their state) covering every construct the fold lowers.
BODIES = {
    "assign_and_convert": "state s, int i) { s->a = i * 3 / 2; s->d = i / 4; s->b = s->d; }",
    "chained_assign": "state s, int i) { int x; x = s->a = s->d = i / 3.0; s->b += x; }",
    "compound_and_incdec": "state s, int i) { s->a += i; s->a %= 7; s->b++; --s->d; s->v[1] += i; }",
    "return_top_level": "state s, int i) { if (i < 0) return; s->a += i; }",
    "return_with_value": "state s, int i) { s->b += 1; if (i > 10) return s->b; s->a += i; }",
    "return_in_loops": """state s, int i) {
        int j, k;
        for (j = 0; j < 4; j++) {
          k = 0;
          while (k < 4) { if (j * k > i) return; s->v[j] += 1; k++; }
        }
        s->a += 1;
      }""",
    "break_continue": """state s, int i) {
        int j;
        j = 0;
        while (j < 6) { j++; if (j % 2 == 0) continue; if (j > i) break; s->a += j; }
        for (j = 0; j < 4; j++) { if (j == 2) break; s->v[j] = i; }
      }""",
    "array_fields": "state s, int i) { s->a = i; s->v[(s->a % 4 + 4) % 4] = s->v[0] + i; s->v[0] = i; }",
    "nested_block_local": "state s, int i) { if (i > 0) { int t; t = i * 2; s->a += t; } }",
    "local_array": "state s, int i) { int w[2]; w[0] = i; w[1] = w[0] * 2; s->a = w[1]; }",
    "ternary_logic": "state s, int i) { s->a = (i > 0 && i < 9) ? i : -i; s->b = !i || s->a; }",
}

#: A sibling function called from ``accum`` (without the state).
HELPERS = (
    "int twice(int x) { return 2 * x; } "
    "void bump(int w[], int x) { w[0] = w[0] + x; }"
)


class TestBlockFold:
    """``accum_block`` is ``accum``'s statements run over the block on
    state fields held in locals: it must leave exactly the state the
    per-element loop leaves."""

    @pytest.mark.parametrize("name", sorted(BODIES))
    @pytest.mark.parametrize("n", [0, 1, 7, 64])
    def test_bodies(self, name, n, rng):
        op = _op(BODIES[name])
        assert op.tile_exact and type(op).accum_block is not ReduceScanOp.accum_block
        for values in _blocks(rng, n):
            assert_block_equals_loop(op, values)

    def test_sibling_function_calls(self, rng):
        op = _op("state s, int i) { s->a += twice(i); bump(s->v, i); }",
                 extra=HELPERS)
        assert op.tile_exact
        for values in _blocks(rng, 20):
            assert_block_equals_loop(op, values)

    @pytest.mark.parametrize("name", sorted(OPERATOR_SOURCES))
    def test_library_operators(self, name, rng):
        op = load_operator(name)
        spec = compile_operator_spec(OPERATOR_SOURCES[name])
        assert spec.block_fallback is None and op.tile_exact
        if name in ("mini", "maxi"):
            x = rng.random(40)
            rows = np.column_stack([x, np.arange(40.0)])
            blocks = [rows, [tuple(r) for r in rows.tolist()],
                      [list(r) for r in rows.tolist()], rows[:1], rows[:0]]
        elif name == "counts":
            cats = rng.integers(1, 9, 40)
            blocks = [cats, cats.tolist(), cats[:1], cats[:0]]
        else:
            blocks = _blocks(rng, 40) + [np.arange(1), []]
        for values in blocks:
            assert_block_equals_loop(op, values)

    def test_listing_8_verbatim(self, rng):
        op = compile_operator(LISTING_8)
        keys = np.sort(rng.integers(0, 1 << 30, 1000))
        for values in (keys, keys.tolist(), keys[::-1], [], [5]):
            assert_block_equals_loop(op, values)

    def test_multi_parameter_rows_are_checked_like_the_loop(self):
        op = _op("state s, double x, int i) { s->d += x * i; s->a = i; }")
        for values in ([(1.5, 2), [2.5, 3]], np.array([[1.5, 2.0], [0.5, 7.0]])):
            assert_block_equals_loop(op, values)
        for bad in ([(1.0, 2, 3)], [4.0]):
            with pytest.raises(OperatorError, match="accum expects 2 input components"):
                op.accum_block(op.ident(), bad)
            with pytest.raises(OperatorError, match="accum expects 2 input components"):
                ReduceScanOp.accum_block(op, op.ident(), bad)

    def test_a_raise_leaves_the_state_as_the_loop_does(self):
        op = _op("state s, int i) { s->a += 1; s->b = 10 / i; }")
        block, loop = op.ident(), op.ident()
        with pytest.raises(ZeroDivisionError):
            op.accum_block(block, [1, 2, 0, 4])
        with pytest.raises(ZeroDivisionError):
            ReduceScanOp.accum_block(op, loop, [1, 2, 0, 4])
        assert pickle.dumps(block._fields) == pickle.dumps(loop._fields)

    def test_the_fold_is_inspectable(self):
        c = generate_python(parse_operator(LISTING_8))
        assert c.block_fallback is None
        assert "accum_block(" in c.block_source and "for i in " in c.block_source

    def test_generated_names_never_shadow_the_operators(self, rng):
        op = _op("state s, int _b_x) { int _b_t; _b_t = _b_x; s->a += _b_t; }")
        assert op.tile_exact
        for values in _blocks(rng, 9):
            assert_block_equals_loop(op, values)


#: Constructs the fold cannot run over locals, with the reason the
#: generator gives; such an operator keeps the per-element loop.
NOT_LOWERED = {
    "state passed to a helper": (
        "state s, int i) { add(s, i); }",
        "void add(state t, int v) { t->a += v; }",
        "the state 's' used whole",
    ),
    "accum calling itself with the state": (
        "state s, int i) { if (i > 0) accum(s, i - 1); s->a += 1; }",
        "",
        "the state 's' used whole",
    ),
    "undeclared state field": (
        "state s, int i) { if (i > 1000) s->nope = 1; s->a += i; }",
        "",
        "state field 'nope' is not declared",
    ),
    "local read outside its block": (
        "state s, int i) { if (i > 0) { int t; t = i; } else { t = 0; } s->a += t; }",
        "",
        "local 't' used outside the block that declares it",
    ),
}


class TestNotLowered:
    @pytest.mark.parametrize("construct", sorted(NOT_LOWERED))
    def test_named_and_kept_on_the_loop(self, construct, rng):
        accum, extra, reason = NOT_LOWERED[construct]
        src = f"""
        rsmpi operator t {{
          state {{ int a; }}
          {extra}
          void accum({accum}
          void combine(state s1, state s2) {{ s1->a += s2->a; }}
          int generate(state s) {{ return s->a; }}
        }}
        """
        spec = compile_operator_spec(src)
        assert reason in spec.block_fallback
        op = spec.build()
        assert type(op).accum_block is ReduceScanOp.accum_block
        values = rng.integers(1, 5, 12)
        tracer = Tracer()
        out = spmd_run(lambda c: global_reduce(c, op, values), 2, tracer=tracer)
        counters = profile_counts(tracer)
        assert counters.get("kernels.accum.fallback") == 2
        assert "kernels.accum.segmented" not in counters
        assert out.returns[0] == 2 * op.accum_block(op.ident(), values).a


class TestKernelCacheKeys:
    def test_dsl_and_decorator_operators_do_not_share_a_kernel(self):
        from repro.rsmpi import OperatorSpec

        spec = OperatorSpec("tally", state={"n": 0})

        @spec.accum
        def _(s, x):
            s.n += x

        @spec.combine
        def _(s1, s2):
            s1.n += s2.n

        decorated, dsl = spec.build(), load_operator("sum")
        cache, arr = KernelCache(), np.arange(8.0)
        assert cache.get(dsl, arr).kind == "segmented"
        assert cache.get(decorated, arr).kind == "fallback"
        assert cache.get(dsl, arr).tile_exact
        assert cache.stats()["entries"] == 2
