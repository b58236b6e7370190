"""Fail-stop injection and the restartable global-view drivers:
checkpointed states, ULFM-style revoke/agree/shrink recovery, and the
survivor-only result guarantee for commutative operators."""

import numpy as np
import pytest

from repro.core.operator import state_equal
from repro.core.reduce import global_reduce
from repro.core.scan import global_scan
from repro.errors import OperatorError, RankFailedError, SpmdError
from repro.faults import FailStop, FaultPlan
from repro.obs import Tracer
from repro.ops import ConcatOp, MeanVarOp, MinKOp, SumOp
from repro.runtime import spmd_run


def blocks_for(nprocs, n=5):
    return [
        [float(q * n + i) for i in range(n)] for q in range(nprocs)
    ]


def kill(rank, *, at_op=1):
    return FaultPlan(seed=0, failstops=(FailStop(rank=rank, at_op=at_op),))


class TestSurvivorOnlyReduce:
    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_combine_phase_failstop_recovers(self, p):
        blocks = blocks_for(p)
        victim = p - 1

        def prog(comm):
            return global_reduce(comm, SumOp(), blocks[comm.rank])

        res = spmd_run(prog, p, fault_plan=kill(victim))
        assert res.failed_ranks == {victim}
        expected = sum(v for q, b in enumerate(blocks) if q != victim
                       for v in b)
        for q in range(p):
            if q == victim:
                assert res.returns[q] is None
            else:
                assert res.returns[q] == expected

    def test_recovered_result_bit_identical_to_survivor_baseline(self):
        # The re-combine runs the same schedule over the same
        # checkpointed states as a fault-free run of the survivors, so
        # even float results match exactly, not just approximately.
        p, victim = 8, 5
        blocks = [
            list(np.linspace(0.1, 0.9, 7) * (q + 1)) for q in range(p)
        ]

        def prog(comm):
            return global_reduce(comm, MeanVarOp(), blocks[comm.rank])

        faulted = spmd_run(prog, p, fault_plan=kill(victim))
        survivors = [b for q, b in enumerate(blocks) if q != victim]

        def baseline(comm):
            return global_reduce(comm, MeanVarOp(), survivors[comm.rank])

        base = spmd_run(baseline, p - 1)
        out = [r for q, r in enumerate(faulted.returns) if q != victim]
        assert state_equal(out, base.returns)

    def test_recovery_metrics_reported(self):
        blocks = blocks_for(4)

        def prog(comm):
            return global_reduce(comm, SumOp(), blocks[comm.rank])

        tracer = Tracer()
        result = spmd_run(prog, 4, fault_plan=kill(2), tracer=tracer)
        faults = result.summary_trace.faults
        assert faults.get("failstops") == 1
        assert faults.get("recoveries", 0) >= 1
        assert len([s for s in tracer.spans() if s.name == "recovery"]) >= 1


class TestSurvivorOnlyScan:
    @pytest.mark.parametrize("p", [3, 6])
    def test_scan_recovers_over_survivors(self, p):
        blocks = blocks_for(p, n=4)
        victim = 1

        def prog(comm):
            return global_scan(comm, SumOp(), blocks[comm.rank])

        faulted = spmd_run(prog, p, fault_plan=kill(victim))
        survivors = [b for q, b in enumerate(blocks) if q != victim]

        def baseline(comm):
            return global_scan(comm, SumOp(), survivors[comm.rank])

        base = spmd_run(baseline, p - 1)
        out = [r for q, r in enumerate(faulted.returns) if q != victim]
        assert state_equal(out, base.returns)


class TestRootedReduce:
    def test_surviving_root_gets_result(self):
        blocks = blocks_for(4)

        def prog(comm):
            return global_reduce(comm, SumOp(), blocks[comm.rank], root=0)

        res = spmd_run(prog, 4, fault_plan=kill(3))
        expected = sum(v for q, b in enumerate(blocks) if q != 3 for v in b)
        assert res.returns[0] == expected
        assert res.returns[1] is None and res.returns[2] is None

    def test_dead_root_answers_every_survivor(self):
        blocks = blocks_for(4)

        def prog(comm):
            return global_reduce(comm, SumOp(), blocks[comm.rank], root=2)

        res = spmd_run(prog, 4, fault_plan=kill(2))
        expected = sum(v for q, b in enumerate(blocks) if q != 2 for v in b)
        for q in (0, 1, 3):
            assert res.returns[q] == expected


class TestNonCommutative:
    def test_clean_documented_error(self):
        blocks = blocks_for(4)

        def prog(comm):
            return global_reduce(comm, ConcatOp(), blocks[comm.rank])

        with pytest.raises(SpmdError) as ei:
            spmd_run(prog, 4, fault_plan=kill(2))
        assert any(
            isinstance(e, OperatorError) and "non-commutative" in str(e)
            for e in ei.value.failures.values()
        )


class TestFailureDetector:
    def test_wait_on_dead_rank_raises_not_hangs(self):
        def prog(comm):
            if comm.rank == 1:
                comm.send("first", 0)
                comm.send("never-sent", 0)  # dies here (at_op=2)
                return None
            if comm.rank == 0:
                comm.recv(1)  # message survives the sender's death
                try:
                    comm.recv(1)  # nothing more is coming
                except RankFailedError as e:
                    return ("detected", e.rank)
            return None

        res = spmd_run(prog, 2, fault_plan=kill(1, at_op=2))
        assert res.returns[0] == ("detected", 1)
        assert res.failed_ranks == {1}

    def test_queued_data_from_dead_rank_drains_first(self):
        # Death must not destroy in-flight messages: a queued message
        # from the dead rank still completes the receive.
        def prog(comm):
            if comm.rank == 1:
                comm.send("payload", 0)
                comm.send("ignored", 0)  # the killing op
                return None
            return comm.recv(1)

        res = spmd_run(prog, 2, fault_plan=kill(1, at_op=2))
        assert res.returns[0] == "payload"

    def test_time_scheduled_failstop(self):
        plan = FaultPlan(
            seed=0, failstops=(FailStop(rank=1, at_time=5e-3),)
        )

        def prog(comm):
            comm.charge(1e-2, "work")  # crosses rank 1's deadline
            return comm.rank

        res = spmd_run(prog, 2, fault_plan=plan)
        assert res.failed_ranks == {1}
        assert res.returns[0] == 0 and res.returns[1] is None


class TestCommunicatorUlfm:
    def test_shrink_and_agree_surface(self):
        def prog(comm):
            if comm.rank == 1:
                comm.send(0, 0)  # die
                return None
            try:
                comm.recv(1)
                comm.recv(1)
            except RankFailedError:
                pass
            assert comm.failed_ranks == {1}
            assert comm.agree(True) is True
            small = comm.shrink()
            assert small.size == comm.size - 1
            # The shrunken communicator is fully operational.
            return small.allgather(small.rank)

        res = spmd_run(prog, 4, fault_plan=kill(1, at_op=1))
        for q in (0, 2, 3):
            assert res.returns[q] == [0, 1, 2]

    def test_revoked_comm_raises_for_members(self):
        from repro.errors import RevokedError

        def prog(comm):
            if comm.rank == 0:
                comm.revoke()
                return "revoked"
            try:
                comm.recv(0)  # would hang: nothing was sent
            except RevokedError:
                return "released"

        res = spmd_run(prog, 3)
        assert res.returns == ["revoked", "released", "released"]

    def test_agree_is_logical_and(self):
        def prog(comm):
            return comm.agree(comm.rank != 2)

        res = spmd_run(prog, 4)
        assert res.returns == [False] * 4

        def prog_true(comm):
            return comm.agree(True)

        res = spmd_run(prog_true, 4)
        assert res.returns == [True] * 4
