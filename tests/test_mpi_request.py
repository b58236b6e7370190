"""Nonblocking collectives: the Request/progress-engine layer.

The contract under test (``docs/overlap.md``): every nonblocking
collective returns results **bit-identical** to its blocking
counterpart, repeated runs are deterministic in both results and
virtual times, and overlapping independent collectives reduces the
makespan.  Failure semantics: a peer fail-stop during an outstanding
request surfaces as ``RankFailedError`` from ``wait()`` — never a hang.
"""

import random

import numpy as np
import pytest

from repro import mpi
from repro.core.operator import state_equal
from repro.errors import CommunicatorError, RankFailedError
from repro.faults import FailStop, FaultPlan, LinkFaults
from repro.faults.chaos import CHAOS_CASES
from repro.mpi import Op, waitall
from repro.mpi.collectives import schedules
from repro.runtime import spmd_run
from tests.conftest import block_split, run_all

SIZES = [1, 2, 3, 4, 7, 8, 16]


def list_concat(a, b):
    return a + b


class TestBitIdentity:
    @pytest.mark.parametrize("p", SIZES)
    def test_iallreduce_matches_allreduce(self, p):
        def prog(comm):
            v = float(comm.rank + 1)
            blocking = comm.allreduce(v, mpi.SUM)
            req = comm.iallreduce(v, mpi.SUM)
            return blocking, req.wait()

        for blocking, nonblocking in run_all(prog, p):
            assert blocking == nonblocking

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize(
        "algorithm", [s.name for s in schedules("allreduce") if s.resumable]
    )
    def test_iallreduce_array_algorithms(self, p, algorithm):
        def prog(comm):
            v = np.arange(4 * comm.size, dtype=np.float64) * (comm.rank + 1)
            blocking = comm.allreduce(v, mpi.SUM, algorithm=algorithm)
            got = comm.iallreduce(v, mpi.SUM, algorithm=algorithm).wait()
            return np.array_equal(blocking, got)

        assert all(run_all(prog, p))

    @pytest.mark.parametrize("p", SIZES)
    def test_noncommutative_op(self, p):
        op = Op(list_concat, commutative=False, name="concat")

        def prog(comm):
            v = [comm.rank]
            return (
                comm.allreduce(v, op),
                comm.iallreduce(v, op).wait(),
            )

        for blocking, nonblocking in run_all(prog, p):
            assert blocking == nonblocking == list(range(p))

    @pytest.mark.parametrize("p", SIZES)
    def test_iscan_iexscan(self, p):
        def prog(comm):
            v = comm.rank + 1
            return (
                comm.scan(v, mpi.SUM),
                comm.iscan(v, mpi.SUM).wait(),
                comm.exscan(v, mpi.SUM),
                comm.iexscan(v, mpi.SUM).wait(),
            )

        for s, is_, xs, ixs in run_all(prog, p):
            assert s == is_
            assert xs == ixs

    @pytest.mark.parametrize("p", SIZES)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_ireduce_roots(self, p, root):
        r = p - 1 if root == "last" else 0

        def prog(comm):
            v = comm.rank + 1
            return (
                comm.reduce(v, mpi.SUM, root=r),
                comm.ireduce(v, mpi.SUM, root=r).wait(),
            )

        out = run_all(prog, p)
        for q, (blocking, nonblocking) in enumerate(out):
            assert blocking == nonblocking
            if q == r:
                assert blocking == p * (p + 1) // 2
            else:
                assert blocking is None

    @pytest.mark.parametrize("p", [2, 4, 8])
    def test_ibarrier(self, p):
        def prog(comm):
            comm.ibarrier().wait()
            return comm.rank

        assert run_all(prog, p) == list(range(p))

    @pytest.mark.parametrize("case", CHAOS_CASES, ids=lambda c: c.name)
    def test_every_operator_wire_identity(self, case):
        """Each public operator's accumulated state allreduces to the
        same result via the blocking and the nonblocking path."""
        from repro.core.reduce import accumulate_local, wire_op

        p = 4
        op = case.make_op()
        data = case.make_data(random.Random(99), 12)

        def prog(comm):
            local = block_split(data, comm.size, comm.rank)
            state = accumulate_local(comm, op, local)
            wop = wire_op(op)
            blocking = comm.allreduce(state, wop)
            state2 = accumulate_local(comm, op, local)
            nonblocking = comm.iallreduce(state2, wop).wait()
            return state_equal(blocking, nonblocking)

        assert all(run_all(prog, p))


class TestProgressEngine:
    def test_interleaving_beats_sequential(self):
        """K independent all-reduces overlap: issuing all K before
        waiting merges their round latencies instead of summing them."""
        K, p = 4, 16

        def sequential(comm):
            return [
                comm.allreduce(float(comm.rank + k), mpi.SUM)
                for k in range(K)
            ]

        def interleaved(comm):
            reqs = [
                comm.iallreduce(float(comm.rank + k), mpi.SUM)
                for k in range(K)
            ]
            return waitall(reqs)

        rs = spmd_run(sequential, p)
        ri = spmd_run(interleaved, p)
        assert rs.returns == ri.returns
        assert ri.time < rs.time

    def test_deterministic_makespan(self):
        def prog(comm):
            reqs = [
                comm.iallreduce(float(comm.rank + k), mpi.SUM)
                for k in range(3)
            ]
            return waitall(reqs)

        runs = [spmd_run(prog, 8) for _ in range(3)]
        assert runs[0].returns == runs[1].returns == runs[2].returns
        assert runs[0].clocks == runs[1].clocks == runs[2].clocks

    def test_test_and_progress_poll(self):
        """``test()`` never blocks; polling to completion matches wait()."""
        import time

        def prog(comm):
            req = comm.iallreduce(comm.rank + 1, mpi.SUM)
            spins = 0
            while not req.test():
                comm.progress()
                time.sleep(0.001)  # real time only: lets peer threads run
                spins += 1
                if spins > 20_000:  # pragma: no cover - failure guard
                    raise RuntimeError("test() never completed")
            return req.wait()

        total = 8 * 9 // 2
        assert run_all(prog, 8) == [total] * 8

    def test_size_one_completes_at_issue(self):
        def prog(comm):
            req = comm.iallreduce(5.0, mpi.SUM)
            return req.test(), req.wait()

        assert run_all(prog, 1) == [(True, 5.0)]

    def test_kary_reduce_rejected(self):
        def prog(comm):
            try:
                comm.ireduce(1.0, mpi.SUM, algorithm="kary")
            except CommunicatorError:
                return "rejected"
            return "accepted"

        assert run_all(prog, 4) == ["rejected"] * 4


class TestRequestFaults:
    def test_failstop_surfaces_from_wait(self):
        """Satellite: a fail-stop while an iallreduce is outstanding must
        raise RankFailedError from wait() on the ranks that depended on
        the victim — and must never hang the watchdog."""
        plan = FaultPlan(seed=1, failstops=(FailStop(rank=1, at_op=2),))

        def prog(comm):
            try:
                return comm.iallreduce(float(comm.rank + 1), mpi.SUM).wait()
            except RankFailedError:
                return "failed"

        res = spmd_run(prog, 4, fault_plan=plan, timeout=60.0)
        assert res.failed_ranks == frozenset({1})
        survivors = [res.returns[q] for q in (0, 2, 3)]
        assert "failed" in survivors  # someone was blocked on the victim

    def test_lossy_links_match_fault_free(self):
        """Under a lossy (but non-failing) plan the reliable layer makes
        nonblocking results identical to the fault-free run."""

        def prog(comm):
            reqs = [
                comm.iallreduce(float(comm.rank * 3 + k), mpi.SUM)
                for k in range(3)
            ]
            return waitall(reqs)

        clean = spmd_run(prog, 4)
        lossy = spmd_run(
            prog, 4,
            fault_plan=FaultPlan(
                seed=7,
                link=LinkFaults(drop_rate=0.3, dup_rate=0.2, reorder_rate=0.2),
            ),
            timeout=60.0,
        )
        assert clean.returns == lossy.returns


class TestNoContextCycle:
    """A rank's progress engine is cached on its context; it must not
    point back at the context, or every job that issues a nonblocking
    collective leaves its contexts (and their world) to the cyclic GC."""

    def test_nonblocking_jobs_leave_no_cyclic_garbage(self):
        import gc

        from repro import Engine, global_reduce, global_reduce_many
        from repro.mpi.request import ProgressEngine
        from repro.ops import MaxOp, MinKOp, SumOp
        from repro.runtime.world import RankContext

        rng = np.random.default_rng(40)
        wide = [rng.integers(-9, 9, (4, 32_768)).astype(np.float64) for _ in range(8)]
        keys = [rng.integers(0, 1 << 40, 4_000) for _ in range(8)]
        total = SumOp()
        many = [SumOp(), MaxOp(np.iinfo(np.int64).min), MinKOp(10, np.iinfo(np.int64).max)]
        jobs = [
            lambda c: global_reduce(c, total, wide[c.rank]),   # overlapped reduce
            lambda c: tuple(global_reduce_many(c, [(o, keys[c.rank]) for o in many])),
        ]
        with Engine(8) as engine:
            for fn in jobs:   # warm: first-use caches are not garbage
                engine.submit(fn).result()
            gc.collect()
            gc.disable()
            try:
                for _ in range(3):
                    for fn in jobs:
                        engine.submit(fn).result()
                gc.set_debug(gc.DEBUG_SAVEALL)
                gc.collect()
                cyclic = [
                    type(o).__name__ for o in gc.garbage
                    if isinstance(o, (RankContext, ProgressEngine))
                ]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
        assert cyclic == []
