"""EX-FAULTS — cost of fault injection and of recovering from it.

Three questions, each answered in virtual time (the currency of every
other figure) and persisted — fault event counts included — into
``results/BENCH_bench_chaos_overhead.*.json`` by the shared
``phase_metrics`` fixture:

1. What does a fault *plan* cost when nothing goes wrong?  (Nothing:
   an all-zero-rate plan must leave the makespan bit-identical.)
2. What do lossy links cost?  (Retransmit backoff + delays, quantified
   as a makespan ratio; results stay bit-identical to fault-free.)
3. What does surviving a mid-combine fail-stop cost?  (The revoke /
   agree / shrink / re-combine round, quantified the same way.  How far
   each survivor got before unwinding follows the thread schedule, so
   the recovered run's makespan varies between repeats — see
   docs/fault_model.md — so ``phase_metrics.leave_out`` keeps it out of
   the persisted file, which keeps only deterministic runs; its fault
   events are read off the run's traces.)
"""

from __future__ import annotations

import numpy as np

from repro.core import global_reduce
from repro.core.operator import state_equal
from repro.faults import FailStop, FaultPlan, LinkFaults
from repro.ops import SumOp
from repro.runtime import spmd_run

P = 8
N = 4_096

LOSSY = FaultPlan(
    seed=11,
    link=LinkFaults(drop_rate=0.2, dup_rate=0.2, delay_rate=0.2,
                    reorder_rate=0.2),
)
FAILSTOP = FaultPlan(seed=11, failstops=(FailStop(rank=5, at_op=1),))


def _blocks():
    rng = np.random.default_rng(23)
    return [rng.random(N) for _ in range(P)]


def _run(fault_plan=None):
    blocks = _blocks()

    def prog(comm):
        return global_reduce(comm, SumOp(), blocks[comm.rank])

    return spmd_run(prog, P, fault_plan=fault_plan)


class TestFaultOverhead:
    def test_null_plan_is_free(self):
        base = _run()
        nulled = _run(FaultPlan(seed=11))
        assert state_equal(nulled.returns, base.returns)
        assert nulled.time == base.time

    def test_lossy_links_cost_time_not_answers(self):
        base = _run()
        lossy = _run(LOSSY)
        assert state_equal(lossy.returns, base.returns)
        assert lossy.time > base.time
        ratio = lossy.time / base.time
        print(f"\nlossy-link makespan overhead: {ratio:.2f}x "
              f"({base.time:.3e}s -> {lossy.time:.3e}s)")

    def test_failstop_recovery_cost(self, phase_metrics):
        blocks = _blocks()
        survivors = [b for q, b in enumerate(blocks) if q != 5]

        def survivor_baseline(comm):
            return global_reduce(comm, SumOp(), survivors[comm.rank])

        base = spmd_run(survivor_baseline, P - 1)
        # A fail-stop's makespan depends on the thread schedule: keep
        # this run out of the persisted profile.
        faulted = _run(FAILSTOP)
        phase_metrics.leave_out(faulted)
        assert faulted.failed_ranks == {5}
        faults = faulted.summary_trace.faults
        assert faults["failstops"] == 1
        assert faults["recoveries"] == P - 1  # one per survivor
        out = [r for q, r in enumerate(faulted.returns) if q != 5]
        assert state_equal(out, base.returns)
        # Recovery is pure overhead relative to having had the smaller
        # world from the start.
        ratio = faulted.time / base.time
        print(f"\nfail-stop recovery makespan overhead: {ratio:.2f}x "
              f"({base.time:.3e}s -> {faulted.time:.3e}s)")
