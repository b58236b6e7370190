"""The kernel tier (`repro.core.kernels`).

Covers: compiler classification (including operators built with
``make_op``/``from_binary``/``ChapelOp``), the identity oracle (the
drivers' results equal the same operator forced onto the base-class
scalar loops, for every chaos-catalogue operator, reduce and scan), the
batched one-sweep accumulate (K=8 over the full {4,8,16}-rank grid),
kernel-cache hit/miss accounting and engine cross-job memoization.
"""

import functools
import operator
import random
import sys

import numpy as np
import pytest

from repro import spmd_run
from repro.core import (
    global_reduce,
    global_reduce_many,
    global_scan,
    global_xscan,
)
from repro.core import kernels as kernels_mod
from repro.core.kernels import (
    ElementwiseKernel,
    FallbackKernel,
    KernelCache,
    SegmentedKernel,
    batched_accumulate,
    compile_kernel,
)
from repro.core.operator import ReduceScanOp, state_equal
from repro.faults.chaos import CHAOS_CASES
from repro.obs import Tracer
from repro.ops import (
    AllOp,
    BandOp,
    BorOp,
    BxorOp,
    CountsOp,
    MaxOp,
    MeanVarOp,
    MinKOp,
    MinOp,
    ProdOp,
    SumOp,
    TranslateMinKOp,
    UfuncOp,
)

#: Eight tile-exact operators over int data — the acceptance-grid batch.
EIGHT_OPS = (
    lambda: SumOp(),
    lambda: ProdOp(np.int64(1)),
    lambda: MinOp(np.iinfo(np.int64).max),
    lambda: MaxOp(np.iinfo(np.int64).min),
    lambda: BandOp(),
    lambda: BorOp(),
    lambda: BxorOp(),
    lambda: AllOp(),
)


@functools.lru_cache(maxsize=None)
def _scalar_loop_class(cls):
    return type(
        "ScalarLoop" + cls.__name__,
        (cls,),
        {
            "accum_block": ReduceScanOp.accum_block,
            "scan_block": ReduceScanOp.scan_block,
        },
    )


def scalar_loops(op):
    """``op`` forced onto the base-class scalar loops: with the block
    methods the only path through the drivers, the per-element loop of
    Listing 2 is the oracle that remains."""
    op.__class__ = _scalar_loop_class(type(op))
    return op


def fused_vs_sequential(makers, data, nprocs, backend="thread"):
    """Run ``global_reduce_many`` over one block under ``makers``' ops,
    assert every result byte-identical to sequential ``global_reduce``
    calls (both on ``backend``), and return the fused run's counters."""
    tracer = Tracer()

    def fused_prog(comm):
        return global_reduce_many(comm, [(make(), data) for make in makers])

    def sequential_prog(comm):
        return [global_reduce(comm, make(), data) for make in makers]

    fused = spmd_run(fused_prog, nprocs, tracer=tracer, backend=backend).returns
    sequential = spmd_run(sequential_prog, nprocs, backend=backend).returns
    for rank_fused, rank_seq in zip(fused, sequential):
        for a, b in zip(rank_fused, rank_seq):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            assert np.asarray(a).dtype == np.asarray(b).dtype
    return tracer.metrics.snapshot()["counters"]


class TestCompilerClassification:
    def test_ufunc_ops_compile_elementwise(self):
        arr = np.arange(8, dtype=np.int64)
        for op in (SumOp(), ProdOp(), MinOp(), MaxOp(), BandOp(), AllOp()):
            kern = compile_kernel(op, arr)
            assert isinstance(kern, ElementwiseKernel), op.name
            assert kern.kind == "elementwise"

    def test_custom_block_ops_compile_segmented(self):
        arr = np.arange(8, dtype=np.int64)
        for op in (CountsOp(8), MinKOp(3), MeanVarOp()):
            kern = compile_kernel(op, arr)
            assert isinstance(kern, SegmentedKernel), op.name

    def test_stateful_ops_compile_fallback(self):
        from repro.ops import AffineOp

        # AffineOp is the catalogue's per-element stateful operator (no
        # block overrides), so it runs the base loop through the tier.
        kern = compile_kernel(AffineOp(), [(2.0, 1.0)])
        assert isinstance(kern, FallbackKernel)
        # TranslateMinKOp ships its own block method -> segmented class.
        kern = compile_kernel(TranslateMinKOp(3), [3.0, 1.0, 2.0])
        assert isinstance(kern, SegmentedKernel)

    def test_exactness_follows_ufunc_and_dtype(self):
        ints = np.arange(4, dtype=np.int64)
        floats = np.linspace(0, 1, 4)
        # Integer add: exactly associative, tile-exact.
        assert compile_kernel(SumOp(), ints).tile_exact
        # Float add: pairwise reduction reorders, never exact.
        assert not compile_kernel(SumOp(), floats).tile_exact
        # min/max: order-independent on any dtype.
        assert compile_kernel(MinOp(), floats).tile_exact
        assert compile_kernel(MaxOp(), floats).tile_exact
        # Custom-block ops are never assumed exact; the base loop is.
        assert not compile_kernel(MeanVarOp(), floats).tile_exact
        from repro.ops import AffineOp

        assert compile_kernel(AffineOp(), [(2.0, 1.0)]).tile_exact

    def test_pyseq_dtype_unknown_only_any_dtype_ufuncs_exact(self):
        assert not compile_kernel(SumOp(), [1, 2, 3]).tile_exact
        assert compile_kernel(MinOp(), [1.0, 2.0]).tile_exact

    def test_lightweight_user_ops_without_a_block_function_are_fallback(self):
        """Regression: ``make_op``/``from_binary``/``ChapelOp`` operators
        overrode ``accum_block`` unconditionally and dispatched inside
        it, so all of them classified as segmented — never tile-exact —
        although their fold is the base-class loop."""
        from repro.core import ChapelOp, from_binary, make_op

        class Tally(ChapelOp):
            def __init__(self):
                self.n = 0

            def accum(self, x):
                self.n += x

            def combine(self, s):
                self.n += s.n

        class BlockTally(Tally):
            def accum_block(self, values):
                self.n += int(np.sum(values))

        arr = np.arange(8, dtype=np.int64)
        functions = dict(
            ident=lambda: 0, accum=operator.add, combine=operator.add
        )
        for op in (
            make_op(**functions),
            from_binary(operator.add, lambda: 0),
            Tally.as_op(),
        ):
            kern = compile_kernel(op, arr)
            assert kern.kind == "fallback" and kern.tile_exact, op.name
        # Only a block function / hook makes the operator segmented.
        for op in (
            make_op(**functions, accum_block=lambda s, v: s + v.sum()),
            from_binary(np.add, lambda: 0, vectorized=True),
            BlockTally.as_op(),
        ):
            assert compile_kernel(op, arr).kind == "segmented", op.name
            assert state_equal(
                op.accum_block(op.ident(), arr),
                ReduceScanOp.accum_block(op, op.ident(), arr),
            ), op.name

    def test_dsl_operators_with_a_generated_fold_are_segmented(self, rng):
        """A DSL operator's generated fold runs ``accum``'s statements per
        element over the block; threading them through tiles is the same
        fold, so the declaration is checked, not assumed."""
        from repro.core.validation import check_tile_exactness
        from repro.rsmpi import load_operator, operator_names

        for name in operator_names():
            op = load_operator(name)
            if name in ("mini", "maxi"):
                data = np.column_stack([rng.random(300), np.arange(300.0)])
            elif name == "counts":
                data = rng.integers(1, 9, 300)
            else:
                data = rng.integers(-10**6, 10**6, 300)
            kern = compile_kernel(op, data)
            assert kern.kind == "segmented" and kern.tile_exact, name
            for _ in range(5):
                cuts = sorted(rng.integers(0, len(data) + 1, 3).tolist())
                check_tile_exactness(op, data, cuts)
                check_tile_exactness(op, list(data), cuts)

    def test_numba_available_does_not_import_numba(self):
        """It is asked from inside the benchmark process for the host
        fingerprint; importing numba there would inflate the RSS and
        start-up time the fingerprint qualifies."""
        loaded = "numba" in sys.modules
        assert isinstance(kernels_mod.numba_available(), bool)
        assert ("numba" in sys.modules) == loaded


class TestCountsScanBlock:
    """``CountsOp.scan_block`` (stable sort by category, rank within it,
    plus the carried counts) against the base class's per-element loop."""

    @pytest.mark.parametrize("exclusive", [False, True])
    @pytest.mark.parametrize("n", [0, 1, 2, 9, 500])
    @pytest.mark.parametrize("layout", ["int64", "int32", "uint8", "list"])
    def test_matches_the_loop(self, exclusive, n, layout, rng):
        op = CountsOp(5, base=2)
        cats = rng.integers(2, 7, n)
        values = cats.tolist() if layout == "list" else cats.astype(layout)
        carried = rng.integers(0, 100, 5)
        out, state = op.scan_block(carried.copy(), values, exclusive=exclusive)
        ref_out, ref_state = ReduceScanOp.scan_block(
            op, carried.copy(), values, exclusive=exclusive
        )
        assert out == ref_out
        assert [type(x) for x in out] == [type(x) for x in ref_out]
        assert state.dtype == ref_state.dtype
        assert state.tobytes() == ref_state.tobytes()

    @pytest.mark.parametrize("exclusive", [False, True])
    @pytest.mark.parametrize("bad", [1, 7, -3])
    def test_out_of_range_category_raises_like_the_loop(self, exclusive, bad):
        from repro.errors import OperatorError

        op = CountsOp(5, base=2)
        for values in ([2, 3, bad, 4, 99], np.array([2, 3, bad, 4, 99])):
            with pytest.raises(OperatorError) as block:
                op.scan_block(op.ident(), values, exclusive=exclusive)
            with pytest.raises(OperatorError) as loop:
                ReduceScanOp.scan_block(
                    op, op.ident(), values, exclusive=exclusive
                )
            assert str(block.value) == str(loop.value)
            assert f"category {bad} outside [2, 6]" in str(block.value)


class TestIdentityOracle:
    """What the drivers return must equal the scalar loops' answer,
    reduce and scan, for every operator in the chaos catalogue."""

    @pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda c: c.name)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_kernel_accumulate_matches_block(self, case, n):
        rng = random.Random(1000 + n)
        data = case.make_data(rng, n)
        op = case.make_op()
        expected = op.accum_block(op.ident(), data)
        op2 = case.make_op()
        kern = compile_kernel(op2, data)
        got = op2.ident()
        if n > 0:
            got = op2.pre_accum(got, data[0])
            got = kern.accumulate(op2, got, data)
            got = op2.post_accum(got, data[n - 1])
            exp2 = case.make_op()
            expected = exp2.ident()
            expected = exp2.pre_accum(expected, data[0])
            expected = exp2.accum_block(expected, data)
            expected = exp2.post_accum(expected, data[n - 1])
        assert state_equal(expected, got), case.name

    @pytest.mark.parametrize(
        "case",
        [c for c in CHAOS_CASES if c.scan],
        ids=lambda c: c.name,
    )
    @pytest.mark.parametrize("exclusive", [False, True])
    def test_kernel_scan_matches_scan_block(self, case, exclusive):
        # Rebuilt per path: the protocol lets accum mutate its state, so
        # the seed object must not be shared between the two scans.
        def build(case):
            rng = random.Random(2024)
            data = case.make_data(rng, 17)
            op = case.make_op()
            seed = op.accum_block(op.ident(), case.make_data(rng, 4))
            return op, seed, data

        op, seed, data = build(case)
        expected = op.scan_block(seed, data, exclusive=exclusive)
        op2, seed2, data2 = build(case)
        kern = compile_kernel(op2, data2)
        got = kern.scan(op2, seed2, data2, exclusive=exclusive)
        assert state_equal(list(expected[0]), list(got[0])), case.name
        assert state_equal(expected[1], got[1]), case.name

    @pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda c: c.name)
    def test_global_reduce_bit_identical_on_vs_off(self, case):
        rng = random.Random(31337)
        blocks = [case.make_data(rng, 6) for _ in range(4)]

        def prog(comm, make_op):
            return global_reduce(comm, make_op(), blocks[comm.rank])

        got = spmd_run(prog, 4, args=(case.make_op,)).returns
        want = spmd_run(
            prog, 4, args=(lambda: scalar_loops(case.make_op()),)
        ).returns
        for a, b in zip(got, want):
            assert state_equal(a, b), case.name

    @pytest.mark.parametrize(
        "case",
        [c for c in CHAOS_CASES if c.scan],
        ids=lambda c: c.name,
    )
    def test_global_scans_bit_identical_on_vs_off(self, case):
        rng = random.Random(55)
        blocks = [case.make_data(rng, 5) for _ in range(4)]

        def prog(comm, make_op):
            inc = global_scan(comm, make_op(), blocks[comm.rank])
            exc = global_xscan(comm, make_op(), blocks[comm.rank])
            return inc, exc

        got = spmd_run(prog, 4, args=(case.make_op,)).returns
        want = spmd_run(
            prog, 4, args=(lambda: scalar_loops(case.make_op()),)
        ).returns
        for (inc, exc), (want_inc, want_exc) in zip(got, want):
            assert state_equal(list(inc), list(want_inc)), case.name
            # SegmentedOp's exclusive scan_block is a semantic
            # definition, not a vectorization (segment heads emit the
            # identity), which the generic loop cannot express.
            if case.name != "segmented":
                assert state_equal(list(exc), list(want_exc)), case.name

    def test_non_commutative_ops_fall_back_cleanly(self):
        """Non-commutative operators classify as segmented/fallback and
        keep their order-preserving semantics through the tier."""
        from repro.ops import ConcatOp, SegmentedOp

        seg = SegmentedOp(lambda a, b: a + b, 0.0, name="segsum")
        assert not seg.commutative
        kern = compile_kernel(seg, [(1.0, 0), (2.0, 1)])
        assert isinstance(kern, SegmentedKernel)
        assert not kern.tile_exact  # never batched into a shared sweep
        cat = ConcatOp()
        assert isinstance(compile_kernel(cat, [1, 2]), SegmentedKernel)


class TestBatchedAccumulate:
    def _ops(self):
        return [make() for make in EIGHT_OPS]

    def test_single_sweep_bit_identical_to_sequential(self):
        data = (np.arange(100_003, dtype=np.int64) % 97) + 1
        ops = self._ops()
        batched = batched_accumulate(ops, data, cache=KernelCache())
        for op, got in zip(self._ops(), batched):
            expected = op.ident()
            expected = op.pre_accum(expected, data[0])
            expected = op.accum_block(expected, data)
            expected = op.post_accum(expected, data[-1])
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
            assert np.asarray(got).dtype == np.asarray(expected).dtype

    def test_mixed_exactness_demotes_to_per_op_passes(self):
        data = np.linspace(0.0, 1.0, 70_000)
        ops = [SumOp(), MinOp(), MeanVarOp()]  # float add is not tile-exact

        class Probe:
            enabled = True

            def __init__(self):
                self.names = []

            def counter(self, name):
                probe = self

                class C:
                    def inc(self, k=1):
                        probe.names.append(name)

                return C()

        probe = Probe()
        batched_accumulate(ops, data, cache=KernelCache(), metrics=probe)
        assert "kernels.batch.fallback_passes" in probe.names
        assert "kernels.batch.sweeps" not in probe.names

    def test_functional_op_does_not_demote_the_batch(self):
        """Regression: a ``make_op`` operator classified as segmented —
        "never tile-exact" — and demoted every batch it joined to
        per-operator passes, although its fold is the base-class loop."""
        from repro.core import make_op

        data = (np.arange(40_000, dtype=np.int64) % 89) + 1
        makers = (
            lambda: make_op(
                ident=lambda: 0, accum=operator.add, combine=operator.add,
                name="sum",
            ),
            lambda: MaxOp(np.iinfo(np.int64).min),
        )
        snap = fused_vs_sequential(makers, data, nprocs=2)
        assert snap.get("kernels.batch.sweeps") == 2  # one per rank
        assert "kernels.batch.fallback_passes" not in snap

    @pytest.mark.parametrize("nprocs", [4, 8, 16])
    def test_reduce_many_one_sweep_grid(self, nprocs):
        """The acceptance grid: K=8 fused reductions over {4,8,16} ranks
        share ONE data sweep per rank and stay bit-identical to the
        sequential path."""
        n = 40_000  # > the sweep tile size, so the tiled path engages
        data = (np.arange(n, dtype=np.int64) % 89) + 1
        snap = fused_vs_sequential(EIGHT_OPS, data, nprocs)
        assert snap.get("kernels.batch.sweeps") == nprocs  # one per rank
        assert snap.get("kernels.batch.members") == nprocs * len(EIGHT_OPS)

    def test_virtual_time_matches_sequential_charges(self):
        """The shared sweep must not change the cost model's answer:
        per-op element charges are identical to sequential calls."""
        data = (np.arange(40_000, dtype=np.int64) % 13) + 1

        def fused_prog(comm):
            return global_reduce_many(
                comm,
                [(make(), data) for make in EIGHT_OPS],
                accum_rate="numpy_stream",
            )

        def sequential_prog(comm):
            out = []
            bucket_free = [
                global_reduce(comm, make(), data, accum_rate="numpy_stream")
                for make in EIGHT_OPS
            ]
            out.extend(bucket_free)
            return out

        fused = spmd_run(fused_prog, 4)
        sequential = spmd_run(sequential_prog, 4)
        # Accumulate charges are per-op identical; only combine waves
        # differ (fusion shares them), so fused can't be slower.
        assert fused.time <= sequential.time + 1e-12


class TestKernelCache:
    def test_hits_and_misses(self):
        cache = KernelCache()
        arr = np.arange(8, dtype=np.int64)
        k1 = cache.get(SumOp(), arr)
        k2 = cache.get(SumOp(), arr)
        assert k1 is k2
        stats = cache.stats()
        assert stats == {
            "entries": 1,
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
        }

    def test_key_separates_dtype_and_shape_class(self):
        cache = KernelCache()
        op = SumOp()
        cache.get(op, np.arange(4, dtype=np.int64))
        cache.get(op, np.arange(4, dtype=np.float64))
        cache.get(op, np.zeros((2, 2)))
        cache.get(op, [1, 2, 3])
        assert cache.stats()["entries"] == 4

    def test_distinct_ufuncs_get_distinct_kernels(self):
        cache = KernelCache()
        arr = np.arange(4, dtype=np.int64)
        kmin = cache.get(UfuncOp(np.minimum, np.inf, "min"), arr)
        kmax = cache.get(UfuncOp(np.maximum, -np.inf, "max"), arr)
        assert kmin is not kmax
        assert kmin.ufunc is np.minimum and kmax.ufunc is np.maximum

    def test_parameterized_ops_share_one_entry(self):
        cache = KernelCache()
        arr = [5.0, 1.0, 3.0]
        cache.get(MinKOp(3), arr)
        cache.get(MinKOp(7), arr)
        assert cache.stats()["entries"] == 1
        assert cache.stats()["hits"] == 1

    def test_worlds_share_the_process_cache(self):
        from repro.runtime.world import World

        w = World(2)
        assert w.kernel_cache is kernels_mod.default_cache()


class TestEngineMemoization:
    def test_cross_job_hit_rate(self):
        """Repeated engine submits of the same operator/dtype re-derive
        nothing: after the first job compiles the kernel, every later
        lookup is a hit (the ScheduleCache-style generation mechanism
        keeps entries valid across jobs)."""
        from repro.engine import Engine

        data = np.arange(512, dtype=np.int64)

        def job(comm):
            return global_reduce(comm, SumOp(), data)

        with Engine(4) as eng:
            first = eng.submit(job, nprocs=2)
            first.result()
            base = eng.stats()["kernel_cache"]
            for _ in range(10):
                eng.submit(job, nprocs=2).result()
            after = eng.stats()["kernel_cache"]
        assert after["misses"] == base["misses"]  # nothing recompiled
        assert after["hits"] >= base["hits"] + 10

    def test_engine_stats_expose_kernel_cache(self):
        from repro.engine import Engine

        with Engine(2) as eng:
            stats = eng.stats()["kernel_cache"]
        assert set(stats) == {"entries", "hits", "misses", "hit_rate"}
