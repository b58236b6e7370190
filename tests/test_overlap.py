"""Chunked accumulate/combine overlap and the overlapped NAS kernels.

The pipeline in :func:`repro.core.reduce.global_reduce`
(``overlap="auto"``) must be bit-identical to the unpipelined path and
strictly cheaper in virtual makespan when it engages.
"""

import numpy as np
import pytest

from repro.core.reduce import global_reduce
from repro.nas.cg import cg_solve_fused, cg_solve_iallreduce, poisson_rhs
from repro.nas.common import MGClass
from repro.nas.mg.zran3 import zran3_mpi, zran3_mpi_fused, zran3_rsmpi
from repro.ops import MaxOp, MeanVarOp, SumOp
from repro.runtime import spmd_run

N_ROWS, N_COLS = 48, 32768  # state = 256 KiB of float64 per rank


def big_block(rank):
    rng = np.random.default_rng(5000 + rank)
    return rng.standard_normal((N_ROWS, N_COLS))


class InPlaceSumOp(SumOp):
    """Sum whose combine adds the right operand into the left one."""

    def combine(self, s1, s2):
        s1 += s2
        return s1


class TestChunkedOverlap:
    # Odd and non-power-of-two sizes take Rabenseifner's fold-in and
    # fold-out, where a chunk's result comes back outside its slice.
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("op_cls", [SumOp, MaxOp])
    def test_bit_identical_and_faster(self, p, op_cls):
        def body(overlap):
            def prog(comm):
                return global_reduce(
                    comm, op_cls(), big_block(comm.rank),
                    accum_rate="numpy_stream", overlap=overlap,
                )
            return prog

        off = spmd_run(body("off"), p)
        auto = spmd_run(body("auto"), p)
        for a, b in zip(off.returns, auto.returns):
            assert np.array_equal(a, b)  # exact, not approximate
        assert auto.time < off.time

    @pytest.mark.parametrize("p", [3, 8])
    def test_left_mutating_combine_aliases_nothing(self, p):
        """The pipeline reduces each chunk in place inside its result
        buffer; a combine that mutates its left operand (the Chapel
        contract allows it) must still give the unpipelined bytes, leave
        every input block as it was, and hand each rank an array of its
        own."""
        blocks = [
            np.random.default_rng(70 + r).standard_normal((6, 20_000))
            for r in range(p)
        ]
        before = [b.copy() for b in blocks]

        def body(overlap):
            def prog(comm):
                return global_reduce(
                    comm, InPlaceSumOp(), blocks[comm.rank], overlap=overlap
                )
            return prog

        off = spmd_run(body("off"), p)
        auto = spmd_run(body("auto"), p)
        assert auto.summary_trace.n_sends > off.summary_trace.n_sends  # engaged
        for a, b in zip(off.returns, auto.returns):
            assert np.array_equal(a, b)
        for b, orig in zip(blocks, before):
            assert np.array_equal(b, orig)
        outs = off.returns + auto.returns
        for i, x in enumerate(outs):
            assert not any(np.shares_memory(x, b) for b in blocks)
            assert not any(np.shares_memory(x, y) for y in outs[i + 1:])

    def test_deterministic(self):
        def prog(comm):
            return global_reduce(
                comm, SumOp(), big_block(comm.rank),
                accum_rate="numpy_stream",
            )

        runs = [spmd_run(prog, 4) for _ in range(2)]
        assert runs[0].clocks == runs[1].clocks
        for a, b in zip(runs[0].returns, runs[1].returns):
            assert np.array_equal(a, b)

    def test_small_input_identical_results(self):
        """Below the crossover the pipeline must not engage: identical
        results AND identical virtual times."""

        def body(overlap):
            def prog(comm):
                vals = np.arange(32.0).reshape(4, 8) + comm.rank
                return global_reduce(
                    comm, SumOp(), vals,
                    accum_rate="numpy_stream", overlap=overlap,
                )
            return prog

        off = spmd_run(body("off"), 4)
        auto = spmd_run(body("auto"), 4)
        assert off.clocks == auto.clocks
        for a, b in zip(off.returns, auto.returns):
            assert np.array_equal(a, b)

    def test_non_elementwise_unaffected(self):
        """A non-elementwise operator over 2-D-looking data keeps the
        plain path regardless of the flag."""

        def body(overlap):
            def prog(comm):
                vals = [float(comm.rank * 7 + i) for i in range(6)]
                return global_reduce(
                    comm, MeanVarOp(), vals, overlap=overlap
                )
            return prog

        off = spmd_run(body("off"), 4)
        auto = spmd_run(body("auto"), 4)
        assert off.returns == auto.returns
        assert off.clocks == auto.clocks

    def test_rooted_reduce_unaffected(self):
        def prog(comm):
            return global_reduce(
                comm, SumOp(), big_block(comm.rank),
                root=0, accum_rate="numpy_stream",
            )

        out = spmd_run(prog, 4)
        assert out.returns[0] is not None
        assert all(v is None for v in out.returns[1:])


class TestOverlappedNas:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_cg_iallreduce_identical_iterates(self, p):
        def body(variant):
            def prog(comm):
                b = poisson_rhs(comm, 192)
                res = variant(comm, b, dot_rate="numpy_stream")
                return (
                    res.iterations,
                    res.residual_norm,
                    res.x_local.tobytes(),
                )
            return prog

        fused = spmd_run(body(cg_solve_fused), p)
        nonblocking = spmd_run(body(cg_solve_iallreduce), p)
        assert fused.returns == nonblocking.returns

    @pytest.mark.parametrize("p", [2, 4])
    def test_zran3_fused_identical_half_messages(self, p):
        cls = MGClass("T", 16, 16, 16)

        def body(variant):
            def prog(comm):
                r = variant(comm, cls, scan_rate="numpy_stream")
                return (
                    r.top_positions.tolist(),
                    r.bot_positions.tolist(),
                    r.local.tobytes(),
                )
            return prog

        plain = spmd_run(body(zran3_mpi), p)
        fused = spmd_run(body(zran3_mpi_fused), p)
        assert plain.returns == fused.returns
        assert fused.summary_trace.n_sends * 2 == plain.summary_trace.n_sends
        assert fused.time < plain.time

    def test_zran3_fused_matches_rsmpi_positions(self):
        cls = MGClass("T", 16, 16, 16)

        def body(variant):
            def prog(comm):
                r = variant(comm, cls)
                return sorted(r.top_positions.tolist()), sorted(
                    r.bot_positions.tolist()
                )
            return prog

        fused = spmd_run(body(zran3_mpi_fused), 4)
        rsmpi = spmd_run(body(zran3_rsmpi), 4)
        assert fused.returns == rsmpi.returns
