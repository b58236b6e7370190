"""Engine API tests: submission, multiplexing, backpressure, lifecycle.

The identity grid (engine vs ``spmd_run`` bit-for-bit) lives in
``test_engine_identity.py``; cross-job isolation in
``test_engine_isolation.py``; scheduling determinism in
``test_engine_determinism.py``.  This file covers the engine's own
contract: handles, sessions, admission control, cancellation, failure
propagation and shutdown.
"""

import threading
import time

import numpy as np
import pytest

from repro import global_reduce, global_scan
from repro.engine import Engine, JobHandle, Session
from repro.errors import (
    CommunicatorError,
    EngineClosed,
    EngineSaturated,
    JobCancelled,
    SpmdError,
    SpmdTimeout,
)
from repro.faults import FailStop, FaultPlan
from repro.ops import SumOp
from repro.runtime import spmd_run
from tests.conftest import conserved, watch_conservation


def sum_job(comm):
    local = np.arange(comm.rank, 8 * comm.size, comm.size, dtype=np.float64)
    return global_reduce(comm, SumOp(), local)


def scan_job(comm):
    return global_scan(comm, SumOp(), [float(comm.rank + 1)])


class TestSubmit:
    def test_result_matches_spmd_run(self):
        baseline = spmd_run(sum_job, 4)
        with Engine(4) as engine:
            res = engine.submit(sum_job).result()
        assert res.returns == baseline.returns
        assert res.clocks == baseline.clocks
        assert res.time == baseline.time

    def test_handle_introspection(self):
        with Engine(2) as engine:
            handle = engine.submit(sum_job, label="my-job")
            assert isinstance(handle, JobHandle)
            res = handle.result()
            assert handle.done()
            assert handle.status == "done"
            assert handle.label == "my-job"
            assert handle.job_id >= 1
            assert res.nprocs == 2

    def test_label_defaults_to_function_name(self):
        with Engine(2) as engine:
            handle = engine.submit(sum_job)
            handle.result()
            assert handle.label == "sum_job"

    def test_args_passed_to_every_rank(self):
        def job(comm, offset):
            return comm.rank + offset

        with Engine(3) as engine:
            res = engine.submit(job, args=(100,)).result()
        assert res.returns == [100, 101, 102]

    def test_job_ids_are_unique_and_ordered(self):
        with Engine(2) as engine:
            handles = [engine.submit(scan_job) for _ in range(5)]
            ids = [h.job_id for h in handles]
            assert ids == sorted(ids)
            assert len(set(ids)) == 5
            for h in handles:
                h.result()

    def test_smaller_jobs_than_pool(self):
        with Engine(8) as engine:
            handles = [engine.submit(scan_job, nprocs=n) for n in (1, 2, 4, 8)]
            for n, h in zip((1, 2, 4, 8), handles):
                res = h.result()
                assert res.nprocs == n
                assert res.returns == [
                    [float(sum(range(1, g + 2)))] for g in range(n)
                ]

    def test_concurrent_jobs_multiplex_the_pool(self):
        with Engine(8) as engine:
            handles = [engine.submit(sum_job, nprocs=4) for _ in range(12)]
            for h in handles:
                h.result()
            stats = engine.stats()
        assert stats["completed"] == 12
        # Two 4-rank jobs fit in an 8-rank pool simultaneously.
        assert stats["peak_inflight"] >= 2

    def test_oversized_job_rejected(self):
        with Engine(4) as engine:
            with pytest.raises(CommunicatorError):
                engine.submit(sum_job, nprocs=8)
            with pytest.raises(CommunicatorError):
                engine.submit(sum_job, nprocs=0)

    def test_stats_counts(self):
        with Engine(4) as engine:
            engine.submit(sum_job).result()
            engine.submit(scan_job).result()
            stats = engine.stats()
        assert stats["submitted"] == 2
        assert stats["completed"] == 2
        assert stats["failed"] == 0
        assert stats["pending"] == 0
        assert stats["inflight"] == 0
        assert stats["free_ranks"] == 4


class TestFailures:
    def test_spmd_error_parity(self):
        def bad(comm):
            if comm.rank == 1:
                raise ValueError("rank 1 exploded")
            return comm.rank

        with pytest.raises(SpmdError) as std:
            spmd_run(bad, 4)
        with Engine(4) as engine:
            with pytest.raises(SpmdError) as eng:
                engine.submit(bad).result()
            assert engine.stats()["failed"] == 1
        assert type(std.value.failures[1]) is type(eng.value.failures[1])
        assert str(std.value.failures[1]) == str(eng.value.failures[1])

    def test_failure_does_not_poison_the_pool(self):
        def bad(comm):
            raise RuntimeError("boom")

        with Engine(4) as engine:
            with pytest.raises(SpmdError):
                engine.submit(bad).result()
            # The pool must still serve healthy jobs afterwards.
            res = engine.submit(sum_job).result()
            assert res.returns == spmd_run(sum_job, 4).returns

    def test_deadlocked_job_is_detected_and_isolated(self):
        def stuck(comm):
            if comm.rank == 0:
                comm.recv(source=1, tag=99)  # rank 1 never sends
            return comm.rank

        with Engine(8) as engine:
            stuck_handle = engine.submit(stuck, nprocs=2)
            healthy = [engine.submit(sum_job, nprocs=4) for _ in range(6)]
            # Healthy jobs on the other ranks complete regardless of the
            # doomed job sharing the pool.
            for h in healthy:
                assert h.result().returns == spmd_run(sum_job, 4).returns
            # The watchdog calls the hang: same contract as spmd_run.
            with pytest.raises(SpmdError, match="deadlock"):
                stuck_handle.result(timeout=10.0)
            # The dead job's ranks are recycled: a full-pool job runs.
            res = engine.submit(sum_job, nprocs=8).result()
            assert res.nprocs == 8

    def test_slow_job_times_out(self):
        release = threading.Event()

        def slow(comm):
            release.wait(10.0)  # alive but not blocked in a receive
            return comm.rank

        try:
            with Engine(2) as engine:
                handle = engine.submit(slow)
                with pytest.raises(SpmdTimeout):
                    handle.result(timeout=0.3)
                release.set()  # let the rank threads unwind
                handle.wait(5.0)
                assert handle.status == "failed"
        finally:
            release.set()

    def test_fault_plan_failed_ranks_in_group_coordinates(self):
        plan = FaultPlan(failstops=(FailStop(rank=1, at_op=1),))
        baseline = spmd_run(sum_job, 4, fault_plan=plan)
        with Engine(8) as engine:
            # Occupy ranks 0-3 so the fault-plan job lands on world
            # ranks 4-7: group rank 1 is world rank 5.
            blocker = engine.submit(sum_job, nprocs=4)
            res = engine.submit(sum_job, nprocs=4, fault_plan=plan).result()
            blocker.result()
        assert res.failed_ranks == baseline.failed_ranks == frozenset({1})
        assert res.returns == baseline.returns


class TestBackpressure:
    def test_nonblocking_submit_saturates(self):
        release = threading.Event()

        def gated(comm):
            release.wait(10.0)
            return comm.rank

        try:
            with Engine(2, queue_depth=2) as engine:
                running = engine.submit(gated)  # occupies the pool
                q1 = engine.submit(scan_job, block=False)
                q2 = engine.submit(scan_job, block=False)
                with pytest.raises(EngineSaturated):
                    engine.submit(scan_job, block=False)
                assert engine.stats()["rejected"] == 1
                release.set()
                for h in (running, q1, q2):
                    h.result()
        finally:
            release.set()

    def test_queue_timeout_expires(self):
        release = threading.Event()

        def gated(comm):
            release.wait(10.0)
            return comm.rank

        try:
            with Engine(2, queue_depth=1) as engine:
                running = engine.submit(gated)
                queued = engine.submit(scan_job)
                t0 = time.monotonic()
                with pytest.raises(EngineSaturated):
                    engine.submit(scan_job, queue_timeout=0.2)
                assert time.monotonic() - t0 >= 0.15
                release.set()
                running.result()
                queued.result()
        finally:
            release.set()

    def test_blocking_submit_waits_for_space(self):
        release = threading.Event()

        def gated(comm):
            release.wait(10.0)
            return comm.rank

        try:
            with Engine(2, queue_depth=1) as engine:
                running = engine.submit(gated)
                queued = engine.submit(scan_job)
                threading.Timer(0.1, release.set).start()
                # Blocks until the gated job finishes and frees a slot.
                extra = engine.submit(scan_job)
                for h in (running, queued, extra):
                    h.result()
        finally:
            release.set()


class TestCancel:
    def test_cancel_pending_job(self):
        release = threading.Event()

        def gated(comm):
            release.wait(10.0)
            return comm.rank

        try:
            with Engine(2) as engine:
                running = engine.submit(gated)
                queued = engine.submit(scan_job)
                assert queued.cancel()
                assert queued.status == "cancelled"
                with pytest.raises(JobCancelled):
                    queued.result()
                release.set()
                running.result()
                assert not queued.cancel()  # already finished
        finally:
            release.set()

    def test_cancel_running_job(self):
        started = threading.Event()
        release = threading.Event()

        def waits_forever(comm):
            # Rank 1 idles outside the runtime: if *both* ranks blocked
            # in a receive the deadlock watchdog could mark the job
            # failed before cancel() lands, which is not the behaviour
            # under test here.
            if comm.rank == 0:
                started.set()
                comm.recv(source=1, tag=7)
            else:
                release.wait(10.0)

        try:
            with Engine(2) as engine:
                handle = engine.submit(waits_forever)
                assert started.wait(5.0)
                assert handle.cancel()
                release.set()
                with pytest.raises(JobCancelled):
                    handle.result(timeout=5.0)
                # Pool is reusable after the cancelled job unwinds.
                assert engine.submit(scan_job).result().nprocs == 2
        finally:
            release.set()


class TestLifecycle:
    def test_submit_after_shutdown_raises(self):
        engine = Engine(2)
        engine.shutdown()
        with pytest.raises(EngineClosed):
            engine.submit(scan_job)

    def test_shutdown_drains_pending(self):
        engine = Engine(2)
        handles = [engine.submit(scan_job) for _ in range(6)]
        engine.shutdown()  # drain=True: every job completes
        assert [h.status for h in handles] == ["done"] * 6

    def test_shutdown_without_drain_cancels_pending(self):
        release = threading.Event()

        def gated(comm):
            release.wait(10.0)
            return comm.rank

        engine = Engine(2)
        try:
            running = engine.submit(gated)
            queued = [engine.submit(scan_job) for _ in range(3)]
            release.set()
            engine.shutdown(drain=False)
            assert running.done()
            for h in queued:
                assert h.status == "cancelled"
                with pytest.raises(JobCancelled):
                    h.result()
        finally:
            release.set()

    def test_drain_waits_for_all(self):
        with Engine(4) as engine:
            handles = [engine.submit(sum_job, nprocs=2) for _ in range(8)]
            assert engine.drain(timeout=30.0)
            assert all(h.done() for h in handles)
            stats = engine.stats()
            assert stats["pending"] == 0 and stats["inflight"] == 0

    def test_shutdown_idempotent(self):
        engine = Engine(2)
        engine.submit(scan_job).result()
        engine.shutdown()
        engine.shutdown()  # second call is a no-op


class TestSession:
    def test_session_tracks_handles(self):
        with Engine(4) as engine:
            with engine.session() as session:
                assert isinstance(session, Session)
                for _ in range(3):
                    session.submit(scan_job, nprocs=2)
                assert len(session.handles) == 3
                results = session.results()
            assert len(results) == 3
            for res in results:
                assert res.returns == [[1.0], [3.0]]

    def test_sessions_share_one_pool(self):
        with Engine(4) as engine:
            a = engine.session()
            b = engine.session()
            ha = [a.submit(scan_job, nprocs=2) for _ in range(4)]
            hb = [b.submit(scan_job, nprocs=2) for _ in range(4)]
            a.drain(timeout=30.0)
            b.drain(timeout=30.0)
            assert all(h.status == "done" for h in ha + hb)
            assert engine.stats()["completed"] == 8

    def test_concurrent_sessions_balance_the_books(self):
        """Six client threads, one session each, ten jobs each: every
        submit and completion is counted once, and each session sees
        exactly its own handles."""
        n_clients, jobs_each = 6, 10
        sessions = [None] * n_clients
        with Engine(4) as engine, watch_conservation(engine):
            def client(idx):
                with engine.session() as s:
                    for _ in range(jobs_each):
                        s.submit(scan_job, nprocs=2)
                    sessions[idx] = s

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = engine.stats()
        total = n_clients * jobs_each
        assert (stats["submitted"], stats["completed"]) == (total, total)
        assert conserved(stats)
        ids = [h.job_id for s in sessions for h in s.handles]
        assert sorted(ids) == list(range(1, total + 1))
        for s in sessions:
            assert len(s.handles) == jobs_each
            assert all(h.status == "done" for h in s.handles)


class TestScheduleCache:
    def test_cache_hits_grow_across_jobs(self):
        with Engine(4) as engine:
            engine.submit(sum_job).result()
            first = engine.stats()["schedule_cache"]
            for _ in range(5):
                engine.submit(sum_job).result()
            later = engine.stats()["schedule_cache"]
        assert later["hits"] > first["hits"]
        # Identical jobs re-resolve the same decision: no new misses.
        assert later["misses"] == first["misses"]

    def test_cached_choice_matches_tuning_tables(self):
        # The cache must be invisible: same algorithm choice as a cold
        # spmd_run, hence identical traces (message counts included).
        baseline = spmd_run(sum_job, 8)
        with Engine(8) as engine:
            engine.submit(sum_job).result()  # warm the cache
            res = engine.submit(sum_job).result()
        assert res.summary_trace.n_sends == baseline.summary_trace.n_sends
        assert res.clocks == baseline.clocks
