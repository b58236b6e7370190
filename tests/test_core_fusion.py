"""Bucketed fusion: K concurrent reductions in shared combine waves.

The contract (``docs/overlap.md``): ``global_reduce_many`` and
``ReductionBucket`` return results bit-identical to the corresponding
sequence of blocking ``global_reduce``/``allreduce`` calls, for every
public operator, at a fraction of the message count and latency.
"""

import random

import numpy as np
import pytest

from repro import mpi
from repro.core.operator import state_equal
from repro.core.fusion import ReductionBucket, global_reduce_many
from repro.core.reduce import global_reduce
from repro.faults import FaultPlan, LinkFaults
from repro.faults.chaos import CHAOS_CASES
from repro.obs import Tracer
from repro.obs.export import profile_counts
from repro.ops import MaxOp, MinOp, SumOp
from repro.runtime import spmd_run
from tests.conftest import block_split, run_all

SIZES = [1, 2, 4, 7, 8, 16]


class TestGlobalReduceMany:
    @pytest.mark.parametrize("p", SIZES)
    def test_matches_sequential_sum_max_min(self, p):
        def prog(comm):
            xs = np.arange(10.0) + comm.rank
            ops = [SumOp(), MaxOp(), MinOp()]
            fused = global_reduce_many(comm, [(op, xs) for op in ops])
            seq = [global_reduce(comm, op, xs) for op in ops]
            return fused == seq

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda c: c.name)
    def test_every_operator(self, case):
        """K=3 fused copies of each public operator match sequential
        blocking calls (the operators differ in state shape, mutability,
        commutativity — the wave must preserve all of it)."""
        p = 4
        op = case.make_op()
        datasets = [
            case.make_data(random.Random(1000 + k), 12) for k in range(3)
        ]

        def prog(comm):
            items = [
                (case.make_op(), block_split(d, comm.size, comm.rank))
                for d in datasets
            ]
            fused = global_reduce_many(comm, items)
            seq = [
                global_reduce(
                    comm, case.make_op(), block_split(d, comm.size, comm.rank)
                )
                for d in datasets
            ]
            return all(state_equal(f, s) for f, s in zip(fused, seq))

        assert all(run_all(prog, p)), f"fusion mismatch for {op.name}"

    def test_saves_messages_and_time(self):
        K, p = 8, 16
        datasets = [np.arange(6.0) * (k + 1) for k in range(K)]

        def fused(comm):
            return global_reduce_many(
                comm, [(SumOp(), d + comm.rank) for d in datasets]
            )

        def sequential(comm):
            return [
                global_reduce(comm, SumOp(), d + comm.rank) for d in datasets
            ]

        rf = spmd_run(fused, p)
        rs = spmd_run(sequential, p)
        assert rf.returns == rs.returns
        assert rf.summary_trace.n_sends * 2 <= rs.summary_trace.n_sends
        assert rf.time <= 0.75 * rs.time


class TestReductionBucket:
    def test_context_manager_and_results(self):
        def prog(comm):
            with comm.fused() as bucket:
                a = bucket.allreduce(float(comm.rank), mpi.SUM)
                b = bucket.allreduce(float(comm.rank), mpi.MAX)
            return a.result(), b.result()

        p = 4
        assert run_all(prog, p) == [(6.0, 3.0)] * p

    def test_result_flushes_implicitly(self):
        def prog(comm):
            bucket = comm.fused()
            h = bucket.allreduce(comm.rank + 1, mpi.SUM)
            assert not h.done
            return h.result()  # must flush + wait on its own

        assert run_all(prog, 4) == [10] * 4

    def test_matches_comm_allreduce(self):
        def prog(comm):
            vals = [float(comm.rank + k) for k in range(4)]
            with comm.fused() as bucket:
                handles = [bucket.allreduce(v, mpi.SUM) for v in vals]
            fused = [h.result() for h in handles]
            seq = [comm.allreduce(v, mpi.SUM) for v in vals]
            return fused == seq

        assert all(run_all(prog, 8))

    def test_byte_threshold_autoflush(self):
        """Crossing the table's ``fusion`` threshold flushes mid-stream:
        more than one wave, results still exact."""

        from repro.mpi import tuning

        tracer = Tracer()

        def prog(comm):
            xs = np.arange(64.0) + comm.rank  # 512 B per entry
            with comm.fused() as bucket:
                handles = [bucket.allreduce(xs, mpi.SUM) for _ in range(4)]
            return [h.result().tolist() for h in handles]

        flush_at_600 = tuning.get_decision_table().replace(
            fusion=(tuning.Band(1 << 62, ((600, "fuse"), (1 << 62, "flush"))),),
        )
        previous = tuning.set_decision_table(flush_at_600)
        try:
            res = spmd_run(prog, 4, tracer=tracer)
        finally:
            tuning.set_decision_table(previous)
        expected = (np.arange(64.0) * 4 + 6).tolist()
        assert res.returns == [[expected] * 4] * 4
        waves = profile_counts(tracer)["fusion.waves"]
        assert waves == 2 * 4  # two waves of two entries per rank

    def test_large_splittable_dispatches_alone(self):
        """An entry whose auto algorithm segments (large array) must not
        join a wave — it goes out as its own collective, and the result
        still matches blocking."""

        def prog(comm):
            big = np.arange(65536.0) + comm.rank  # 512 KiB: ring/rab range
            small = float(comm.rank)
            with comm.fused() as bucket:
                hb = bucket.allreduce(big, mpi.SUM)
                hs = bucket.allreduce(small, mpi.SUM)
            return (
                np.array_equal(hb.result(), comm.allreduce(big, mpi.SUM)),
                hs.result() == comm.allreduce(small, mpi.SUM),
            )

        assert all(all(pair) for pair in run_all(prog, 4))

    def test_mixed_operator_wave(self):
        """Different combine fns in one wave use the product-state path."""

        def prog(comm):
            with comm.fused() as bucket:
                a = bucket.allreduce(float(comm.rank + 1), mpi.SUM)
                b = bucket.allreduce(float(comm.rank + 1), mpi.PROD)
                c = bucket.allreduce((float(comm.rank), comm.rank), mpi.MAXLOC)
            return a.result(), b.result(), c.result()

        p = 4
        out = run_all(prog, p)
        assert out == [(10.0, 24.0, (3.0, 3))] * p

    def test_waves_saved_metric(self):
        tracer = Tracer()

        def prog(comm):
            global_reduce_many(
                comm, [(SumOp(), np.arange(4.0) + comm.rank) for _ in range(5)]
            )

        spmd_run(prog, 4, tracer=tracer)
        # 5 entries, 1 wave per rank -> 4 saved per rank, 4 ranks
        counts = profile_counts(tracer)
        assert counts["fusion.waves_saved"] == 16
        assert counts["fusion.waves"] == 4


class TestFusionFaults:
    def test_lossy_matches_fault_free(self):
        def prog(comm):
            xs = np.arange(8.0) + comm.rank
            return global_reduce_many(
                comm, [(SumOp(), xs), (MaxOp(), xs), (MinOp(), xs)]
            )

        clean = spmd_run(prog, 4)
        lossy = spmd_run(
            prog, 4,
            fault_plan=FaultPlan(
                seed=3,
                link=LinkFaults(drop_rate=0.3, dup_rate=0.2, reorder_rate=0.2),
            ),
            timeout=60.0,
        )
        for a, b in zip(clean.returns, lossy.returns):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
