"""The selection family's block fold (``MinKOp``, ``MaxKOp``,
``MinKLocOp``, ``MaxKLocOp``, ``ExtremaKLocOp``).

k-selection is exactly associative, so the family declares
``tile_exact`` and folds a block one cache tile at a time against the
state's running k-th value.  The scalar ``accum`` loop — Listing 4's
insertion, the ``lexsort`` of one more row — stays the identity oracle:
every state here is compared with it byte for byte, signed zeros and
NaN included.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ReduceScanOp, check_operator, make_op
from repro.core.kernels import compile_kernel
from repro.errors import OperatorError, OperatorLawError
from repro.ops import (
    CountsOp,
    ExtremaKLocOp,
    HistogramOp,
    MaxKLocOp,
    MaxKOp,
    MaxOp,
    MeanVarOp,
    MinKLocOp,
    MinKOp,
    SegmentedOp,
    SumOp,
    TopKOp,
    TranslateMinKOp,
)
from tests.test_kernels import fused_vs_sequential

I64, U64 = np.iinfo(np.int64), np.iinfo(np.uint64)

# Small pools, so that duplicates, ties at the cut-off and sentinel-valued
# inputs are the common case rather than the rare one.
POOLS = {
    "int64": [-3, -2, -1, 0, 1, 2, 3, int(I64.max), int(I64.min)],
    "uint64": [0, 1, 2, 3, 4, 5, int(U64.max)],
    "float64": [0.0, -0.0, 1.0, -1.0, 2.5, 1e300, np.nan, np.inf, -np.inf],
}
#: (MinKOp sentinel, MaxKOp sentinel) that keep the state in the dtype.
SENTINELS = {
    "int64": (int(I64.max), int(I64.min)),
    "uint64": (np.uint64(U64.max), np.uint64(0)),
    "float64": (np.inf, -np.inf),
}
INT_LOCS, FLOAT_LOCS = [0, 1, 2, 3, 7], [0.0, -0.0, 1.0, 2.0, 3.0, 7.0]
LOC_VALUE_POOLS = {**POOLS, "int64": [-3, -1, 0, 1, 3], "uint64": [0, 1, 2, 5]}

PROPERTY = settings(max_examples=120, deadline=None)


def state_bytes(state):
    """dtype, shape and bytes of every array a selection state holds."""
    parts = (state.top, state.bot) if hasattr(state, "top") else (state,)
    return [(p.dtype.str, p.shape, p.tobytes()) for p in parts]


def scalar_fold(op, elements):
    """The identity oracle: the base-class loop over ``accum``."""
    return ReduceScanOp.accum_block(op, op.ident(), elements)


def tiled_fold(op, block, cuts):
    """Thread one state through the tiles ``cuts`` delimit (a repeated
    cut is an empty tile)."""
    state = op.ident()
    bounds = [0, *sorted(cuts), len(block)]
    for lo, hi in zip(bounds, bounds[1:]):
        state = op.accum_block(state, block[lo:hi])
    return state


@st.composite
def value_blocks(draw):
    """``(dtype, block, flat)``: a block of values in one of the layouts
    a caller may hand over, and the same elements as the flat sequence
    the scalar loop sees."""
    dtype = draw(st.sampled_from(sorted(POOLS)))
    values = draw(st.lists(st.sampled_from(POOLS[dtype]), max_size=40))
    layout = draw(st.sampled_from(["1d", "2d", "strided", "list"]))
    if layout == "list":
        if dtype == "uint64":  # a Python int is an int64 to NumPy
            values = list(np.array(values, dtype=dtype))
        return dtype, values, values
    arr = np.array(values, dtype=dtype)
    if layout == "2d":
        width = draw(st.integers(1, 3))
        arr = arr[: len(arr) - len(arr) % width].reshape(-1, width)
    elif layout == "strided":
        wide = np.zeros(2 * len(arr), dtype=dtype)
        wide[::2] = arr
        arr = wide[::2]
        assert not arr.flags.c_contiguous or len(arr) < 2
    return dtype, arr, list(arr.reshape(-1))


@st.composite
def pair_blocks(draw):
    """``(block, rows)`` for the ``*Loc`` operators: ``(value, loc)``
    pairs as an ``(n, 2)`` array (contiguous or not) or a list of
    tuples, and the rows as the scalar loop sees them."""
    dtype = draw(st.sampled_from(sorted(POOLS)))
    pairs = draw(
        st.lists(
            st.tuples(
                st.sampled_from(LOC_VALUE_POOLS[dtype]),
                st.sampled_from(FLOAT_LOCS if dtype == "float64" else INT_LOCS),
            ),
            max_size=40,
        )
    )
    layout = draw(st.sampled_from(["2d", "strided", "list"]))
    if layout == "list":
        return pairs, pairs
    arr = np.array(pairs, dtype=dtype).reshape(-1, 2)
    if layout == "strided":
        wide = np.zeros((len(arr), 4), dtype=dtype)
        wide[:, ::2] = arr
        arr = wide[:, ::2]
    return arr, list(arr)


cut_points = st.lists(st.integers(0, 40), max_size=4)
ks = st.integers(1, 6)


class TestIdentityWithTheScalarLoop:
    @PROPERTY
    @given(data=value_blocks(), k=ks, cuts=cut_points, largest=st.booleans())
    def test_mink_maxk_any_tiling_any_split(self, data, k, cuts, largest):
        dtype, block, flat = data
        cls = MaxKOp if largest else MinKOp
        op = cls(k, SENTINELS[dtype][largest])
        want = state_bytes(scalar_fold(op, flat))
        cuts = [min(c, len(block)) for c in cuts]
        assert state_bytes(op.accum_block(op.ident(), block)) == want
        assert state_bytes(tiled_fold(op, block, cuts)) == want
        # combine(a, b) is Listing 4's insertion of b's elements into a.
        split = cuts[0] if cuts else 0
        left = op.accum_block(op.ident(), block[:split])
        right = op.accum_block(op.ident(), block[split:])
        inserted = left.copy()
        for x in right:
            inserted = op._insert(inserted, x)
        kept = right.copy()
        assert state_bytes(op.combine(left, right)) == state_bytes(inserted)
        assert right.tobytes() == kept.tobytes()  # right operand untouched
        # ... and selects the same values as the unsplit fold (Listing 4
        # inserts b's later arrivals first, so which of two equal zeros
        # survives a split may differ in sign — never in value).
        assert np.array_equal(inserted, scalar_fold(op, flat))

    @PROPERTY
    @given(
        data=pair_blocks(), k=ks, cuts=cut_points,
        cls=st.sampled_from([MinKLocOp, MaxKLocOp, ExtremaKLocOp]),
    )
    def test_loc_family_any_tiling_any_split(self, data, k, cuts, cls):
        block, rows = data
        op = cls(k)
        want = state_bytes(scalar_fold(op, rows))
        cuts = [min(c, len(block)) for c in cuts]
        assert state_bytes(op.accum_block(op.ident(), block)) == want
        assert state_bytes(tiled_fold(op, block, cuts)) == want
        # combine(a, b) is the row-by-row insertion of b's rows into a.
        split = cuts[0] if cuts else 0
        left = op.accum_block(op.ident(), block[:split])
        right = op.accum_block(op.ident(), block[split:])
        if cls is ExtremaKLocOp:
            top, bot = MaxKLocOp(k), MinKLocOp(k)
            inserted = [
                ReduceScanOp.accum_block(top, left.top, right.top),
                ReduceScanOp.accum_block(bot, left.bot, right.bot),
            ]
            inserted = [(p.dtype.str, p.shape, p.tobytes()) for p in inserted]
        else:
            inserted = state_bytes(ReduceScanOp.accum_block(op, left, right))
        assert state_bytes(op.combine(left, right)) == inserted == want

    def test_a_block_longer_than_one_tile(self):
        """The property blocks fit one tile; this one crosses three,
        with the cut-off value repeated on both sides of each border."""
        from repro.core.operator import TILE_ELEMS

        rng = np.random.default_rng(24)
        n = 2 * TILE_ELEMS + 1234
        values = rng.integers(0, 50, n).astype(np.float64)
        values[rng.integers(0, n, 200)] = -0.0
        values[rng.integers(0, n, 200)] = 0.0
        values[rng.integers(0, n, 50)] = np.nan
        pairs = np.stack([values, rng.integers(0, 9, n).astype(np.float64)], axis=1)
        for op, block in (
            (MinKOp(7), values), (MaxKOp(7), values),
            (MinKLocOp(7), pairs), (MaxKLocOp(7), pairs),
            (ExtremaKLocOp(7), pairs),
        ):
            want = state_bytes(scalar_fold(op, block))
            assert state_bytes(op.accum_block(op.ident(), block)) == want, op.name


class TestDtypeRefusal:
    """Regression: an integer sentinel makes an integer state, and float
    inputs were truncated on assignment ([0.5, 1.5, 2.7] kept as
    [2, 1, 0]) in the block and the scalar path alike."""

    @pytest.mark.parametrize(
        "op", [MinKOp(3, int(I64.max)), MaxKOp(3, int(I64.min)),
               TranslateMinKOp(3, int(I64.max))],
        ids=lambda op: op.name,
    )
    def test_floats_into_an_integer_state_raise(self, op):
        floats = np.array([0.5, 1.5, 2.7, 9.9])
        with pytest.raises(OperatorError, match="float64.*int64"):
            op.accum_block(op.ident(), floats)
        with pytest.raises(OperatorError, match="float64.*int64"):
            op.accum(op.ident(), 0.5)

    def test_same_kind_casts_are_kept(self):
        ints = np.array([5, 1, 9, 3], dtype=np.int32)
        assert MinKOp(2).accum_block(MinKOp(2).ident(), ints).tolist() == [3.0, 1.0]
        op = MinKOp(2, int(I64.max))
        assert op.accum_block(op.ident(), ints).tolist() == [3, 1]
        assert op.accum(op.ident(), 4).tolist() == [int(I64.max), 4]
        assert op.accum_block(op.ident(), []).tolist() == [int(I64.max)] * 2


class TestTopK:
    @pytest.mark.parametrize("largest", [True, False])
    def test_block_equals_the_scalar_loop_on_keyed_tied_input(self, largest):
        rng = np.random.default_rng(3)
        items = [(int(a), int(b)) for a, b in rng.integers(0, 6, (300, 2))]
        for key in (None, lambda item: item[1], lambda item: -item[0]):
            op = TopKOp(7, key=key, largest=largest)
            want = scalar_fold(op, items)
            assert op.accum_block(op.ident(), items) == want
            state = op.accum_block(op.ident(), items[:100])
            assert op.accum_block(state, items[100:]) == want
            assert op.accum_block(op.ident(), items[:3]) == scalar_fold(op, items[:3])


class _FloatAddDeclaredExact(ReduceScanOp):
    """A float sum whose block method claims what only k-selection and
    integer counts can: NumPy reduces pairwise, so tiles re-associate."""

    tile_exact = True

    def ident(self):
        return 0.0

    def accum(self, state, x):
        return state + x

    def combine(self, s1, s2):
        return s1 + s2

    def accum_block(self, state, values):
        return state + np.add.reduce(np.asarray(values, dtype=np.float64))


class TestDeclaration:
    def test_the_selection_family_and_the_bin_counters_are_tile_exact(self):
        ints = np.arange(8, dtype=np.int64)
        pairs = np.zeros((4, 2))
        for op, values in (
            (MinKOp(3), ints), (MaxKOp(3), ints), (CountsOp(8, base=0), ints),
            (HistogramOp([0.0, 4.0, 8.0]), ints), (MinKLocOp(3), pairs),
            (MaxKLocOp(3), pairs), (ExtremaKLocOp(3), pairs),
        ):
            kern = compile_kernel(op, values)
            assert kern.kind == "segmented" and kern.tile_exact, op.name

    def test_undeclared_block_methods_stay_out_of_the_sweep(self):
        ints = np.arange(8, dtype=np.int64)
        assert ReduceScanOp.tile_exact is False
        for op in (
            TranslateMinKOp(3),
            MeanVarOp(),
            SegmentedOp(lambda a, b: a + b, 0.0, name="segsum"),
            make_op(ident=lambda: 0, accum=lambda s, x: s + x,
                    combine=lambda a, b: a + b,
                    accum_block=lambda s, v: s + v.sum()),
        ):
            kern = compile_kernel(op, ints)
            assert kern.kind == "segmented" and not kern.tile_exact, op.name

    def test_check_operator_reports_a_misdeclared_operator(self):
        samples = list(np.random.default_rng(0).random(2000))
        with pytest.raises(OperatorLawError, match="tile_exact.*mis-declared"):
            check_operator(_FloatAddDeclaredExact(), samples, n_trials=5)

    def test_check_operator_accepts_the_honest_declarations(self):
        rng = np.random.default_rng(1)
        values = [float(v) for v in rng.integers(0, 5, 60)]
        pairs = [(v, float(i % 7)) for i, v in enumerate(values)]
        for op, samples in (
            (MinKOp(4), values), (MaxKOp(4), values),
            (CountsOp(5, base=0), [int(v) for v in values]),
            (HistogramOp([0.0, 2.0, 4.0]), values),
            (MinKLocOp(4), pairs), (MaxKLocOp(4), pairs),
            (ExtremaKLocOp(4), pairs),
        ):
            check_operator(op, samples, n_trials=10)


class TestDeterministicFloors:
    """No wall clock: an allocation peak and a sweep count.  CI runs this
    class in the perf-regression-smoke job beside the fusion floors."""

    def test_fold_allocates_a_tile_not_the_block(self):
        """The whole-block fold held two copies of the block (15.26 MiB
        for 1M int64); the tiled fold holds a few tile-sized temporaries
        (0.53 MiB)."""
        block = np.random.default_rng(0).integers(0, 1 << 40, 1_000_000)
        op = MinKOp(10, int(I64.max))
        state = op.ident()
        tracemalloc.start()
        try:
            state = op.accum_block(state, block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert state.tolist() == np.sort(block)[:10][::-1].tolist()
        assert peak < 2 * 2**20, f"fold peaked at {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("nprocs", [4, 8, 16])
    def test_sum_max_mink_share_one_sweep(self, nprocs, backend):
        """The ``accum_heavy`` batch: MinK no longer demotes it to three
        whole-block passes.  (The process backend offers each member's
        fold to the rank's worker instead of sweeping under the GIL, so
        only the identity is asserted there.)"""
        data = np.random.default_rng(7).integers(0, 1 << 40, 250_000)
        makers = (
            SumOp,
            lambda: MaxOp(int(I64.min)),
            lambda: MinKOp(10, int(I64.max)),
        )
        snap = fused_vs_sequential(makers, data, nprocs, backend=backend)
        assert "kernels.batch.fallback_passes" not in snap
        if backend == "thread":
            assert snap.get("kernels.batch.sweeps") == nprocs  # one per rank
            assert snap.get("kernels.batch.members") == 3 * nprocs
