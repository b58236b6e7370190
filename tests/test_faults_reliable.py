"""Reliable delivery over lossy links: every collective must stay
exactly-once-correct (bit-identical to the fault-free run) when the
fault plan drops, duplicates, delays or reorders messages."""

import numpy as np
import pytest

from repro.core.operator import state_equal
from repro.core.reduce import global_reduce
from repro.core.scan import global_scan
from repro.faults import FaultPlan, LinkFaults
from repro.mpi.collectives import schedules
from repro.obs import Tracer
from repro.ops import CountsOp, SortedOp, SumOp
from repro.runtime import spmd_run

HEAVY = FaultPlan(
    seed=3,
    link=LinkFaults(
        drop_rate=0.3, dup_rate=0.3, delay_rate=0.3, reorder_rate=0.3
    ),
)


def assert_lossy_identical(prog, nprocs, plan=HEAVY):
    base = spmd_run(prog, nprocs)
    faulted = spmd_run(prog, nprocs, fault_plan=plan)
    assert state_equal(faulted.returns, base.returns)
    return base, faulted


class TestCollectivesUnderLoss:
    @pytest.mark.parametrize("p", [2, 4, 7])
    def test_point_to_point_ring(self, p):
        def prog(comm):
            comm.send(comm.rank * 10, (comm.rank + 1) % comm.size)
            return comm.recv((comm.rank - 1) % comm.size)

        assert_lossy_identical(prog, p)

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_allreduce_auto(self, p):
        from repro.mpi.op import SUM

        def prog(comm):
            return comm.allreduce(
                np.arange(comm.rank, comm.rank + 64, dtype=float), SUM
            )

        assert_lossy_identical(prog, p)

    @pytest.mark.parametrize(
        "algorithm", [s.name for s in schedules("allreduce")]
    )
    def test_allreduce_every_algorithm(self, algorithm):
        from repro.mpi.op import SUM

        def prog(comm):
            return comm.allreduce(
                np.arange(comm.rank, comm.rank + 256, dtype=float),
                SUM, algorithm=algorithm,
            )

        assert_lossy_identical(prog, 8)

    def test_mixed_collectives(self):
        def prog(comm):
            a = comm.bcast(list(range(5)), root=0)
            b = comm.gather(comm.rank * 2, root=1)
            c = comm.allgather(comm.rank)
            comm.barrier()
            d = comm.alltoall([comm.rank * 100 + i for i in range(comm.size)])
            e = comm.scan(float(comm.rank + 1), lambda x, y: x + y)
            return a, b, c, d, e

        assert_lossy_identical(prog, 6)

    @pytest.mark.parametrize("p", [3, 8])
    def test_global_view_drivers(self, p):
        def prog(comm):
            local = [((comm.rank * 13 + i) % 8) + 1 for i in range(5)]
            red = global_reduce(comm, CountsOp(8), local)
            sc = global_scan(comm, SumOp(), [float(v) for v in local])
            srt = global_reduce(comm, SortedOp(), sorted(local))
            return red, sc, srt

        assert_lossy_identical(prog, p)


class TestDeterminismAndMetrics:
    def test_lossy_run_is_deterministic(self):
        def prog(comm):
            return global_reduce(
                comm, SumOp(), np.arange(comm.rank, comm.rank + 32, dtype=float)
            )

        r1 = spmd_run(prog, 8, fault_plan=HEAVY)
        r2 = spmd_run(prog, 8, fault_plan=HEAVY)
        assert state_equal(r1.returns, r2.returns)
        assert r1.time == r2.time  # virtual makespan is reproducible too

    def test_retransmit_counts_reported_via_metrics(self):
        def prog(comm):
            comm.barrier()
            return comm.allgather(comm.rank)

        tracer = Tracer()
        spmd_run(prog, 8, fault_plan=HEAVY, tracer=tracer)
        counters = tracer.metrics.snapshot()["counters"]
        assert counters.get("faults.retransmits", 0) > 0
        assert counters.get("faults.duplicates", 0) > 0

    def test_drops_cost_virtual_time(self):
        # Retransmit backoff must make the lossy run slower in virtual
        # time, never faster — and a drop-free plan costs nothing.
        def prog(comm):
            comm.barrier()
            for _ in range(10):
                comm.send(comm.rank, (comm.rank + 1) % comm.size)
                comm.recv((comm.rank - 1) % comm.size)
            return comm.allgather(comm.rank)

        base = spmd_run(prog, 4)
        dropped = spmd_run(
            prog, 4,
            fault_plan=FaultPlan(seed=1, link=LinkFaults(drop_rate=0.4)),
        )
        assert dropped.time > base.time

    def test_fault_free_plan_changes_nothing(self):
        # An all-zero-rate plan must not perturb messages, times or traces.
        def prog(comm):
            comm.barrier()
            return comm.allgather(comm.rank * 3)

        base = spmd_run(prog, 4)
        nulled = spmd_run(prog, 4, fault_plan=FaultPlan(seed=5))
        assert state_equal(nulled.returns, base.returns)
        assert nulled.time == base.time
        assert (nulled.summary_trace.n_sends == base.summary_trace.n_sends)


class TestStragglers:
    def test_straggler_slows_the_run(self):
        def prog(comm):
            comm.charge(1e-3, "work")
            comm.barrier()
            return comm.rank

        base = spmd_run(prog, 4)
        slow = spmd_run(
            prog, 4, fault_plan=FaultPlan(seed=0, stragglers={2: 10.0})
        )
        assert slow.time > base.time
        assert slow.time == pytest.approx(base.time + 9e-3, rel=1e-6)
