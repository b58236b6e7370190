"""Self-healing engine tests: retry, quarantine, probe, reap, shutdown.

The policy layer (:mod:`repro.engine.resilience`) is pure and unit-
tested directly; the mechanism tests drive a real :class:`Engine`
through injected fail-stops and assert the ISSUE 8 contract: retried
jobs eventually succeed **bit-identically** to a fault-free run,
exhausted retries surface the *last* attempt's error with rank states,
dead pool ranks are quarantined / probed / revived, degraded capacity
is visible and enforceable at admission, stuck jobs are reaped
server-side, and shutdown reports (rather than hides) join failures.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import Engine, RetryPolicy, resilience
from repro.engine.scheduler import Scheduler
from repro.errors import (
    EngineDegraded,
    EngineSaturated,
    JobCancelled,
    SpmdError,
    SpmdTimeout,
)
from repro.faults import (
    FailStop,
    FaultPlan,
    LinkFaults,
    reseed,
    transient_plan,
)
from repro.obs.telemetry import EngineTelemetry
from repro.ops import MaxOp, SumOp
from repro.runtime import spmd_run
from tests.conftest import conserved, watch_conservation

PAYLOAD = 16


def _raw_job(op_factory):
    """A reduction over the raw (non-resilient) allreduce path: an
    injected fail-stop fails the attempt instead of being absorbed by
    the restartable ``global_reduce`` driver, which is the lane the
    engine's RetryPolicy exists for."""
    from repro.core.reduce import accumulate_local, wire_op

    def job(comm):
        op = op_factory()
        local = np.arange(
            comm.rank, PAYLOAD * comm.size, comm.size, dtype=np.float64
        )
        acc = accumulate_local(comm, op, local)
        return op.red_gen(comm.allreduce(acc, wire_op(op)))

    return job


raw_sum_job = _raw_job(SumOp)

KILL_RANK_1 = FaultPlan(seed=5, failstops=(FailStop(rank=1, at_op=1),))


def always_failstop(attempt):
    """Callable plan source that crashes rank 1 on *every* attempt."""
    return KILL_RANK_1


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)

    def test_should_retry(self):
        policy = RetryPolicy(max_attempts=3)
        err = SpmdError({1: ValueError("boom")})
        assert policy.should_retry(1, err)
        assert policy.should_retry(2, err)
        assert not policy.should_retry(3, err)  # attempts exhausted
        assert not policy.should_retry(1, ValueError("not transient"))

    def test_backoff_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, seed=7)
        for attempt in (1, 2, 3, 6):
            a = policy.backoff_seconds(attempt, job_id=42)
            b = policy.backoff_seconds(attempt, job_id=42)
            assert a == b  # same (seed, job, attempt) -> same jitter
            nominal = min(
                resilience.BACKOFF_MAX,
                0.1 * resilience.BACKOFF_FACTOR ** (attempt - 1),
            )
            spread = resilience.JITTER * nominal
            assert nominal - spread <= a <= nominal + spread
        # Different jobs de-synchronize.
        assert policy.backoff_seconds(1, 1) != policy.backoff_seconds(1, 2)

    def test_backoff_schedule_is_the_recorded_one(self):
        """The factor, cap and jitter became constants; the stream did
        not move: these are the values the commit before computed for
        the same ``(seed, job_id, attempt)``, so a recorded retry
        schedule replays unchanged."""
        assert (
            resilience.BACKOFF_FACTOR, resilience.BACKOFF_MAX,
            resilience.JITTER, resilience.RETRY_ON,
        ) == (2.0, 1.0, 0.1, (SpmdError,))
        recorded = [
            (RetryPolicy(), 1, 1, 0.009027499680245682),
            (RetryPolicy(), 2, 1, 0.01975057801021572),
            (RetryPolicy(backoff_base=0.002), 1, 7, 0.0018837359801107164),
            (RetryPolicy(backoff_base=0.002, seed=3), 4, 42,
             0.017106543330506263),
            (RetryPolicy(max_attempts=8, backoff_base=0.002), 3, 5,
             0.007743621852527278),
            (RetryPolicy(backoff_base=0.1, seed=7), 6, 42,
             1.0475828018895907),  # capped at BACKOFF_MAX, then jittered
        ]
        for policy, attempt, job_id, seconds in recorded:
            assert policy.backoff_seconds(attempt, job_id) == seconds

    def test_fault_plan_for(self):
        policy = RetryPolicy()
        assert policy.fault_plan_for(None, 0) is None
        assert policy.fault_plan_for(None, 3) is None
        # Static plan: verbatim on attempt 0, reseeded afterwards.
        assert policy.fault_plan_for(KILL_RANK_1, 0) is KILL_RANK_1
        derived = policy.fault_plan_for(KILL_RANK_1, 1)
        assert derived.failstops == ()
        assert derived.seed != KILL_RANK_1.seed
        # Callable sources are consulted per attempt, never reseeded.
        assert policy.fault_plan_for(always_failstop, 4) is KILL_RANK_1


class TestPlanDerivation:
    def test_reseed_is_deterministic_and_drops_failstops(self):
        plan = FaultPlan(
            seed=9, failstops=(FailStop(rank=2, at_op=3),),
            link=LinkFaults(drop_rate=0.1),
        )
        assert reseed(plan, 0) is plan
        d1, d1_again = reseed(plan, 1), reseed(plan, 1)
        assert d1 == d1_again
        assert d1.failstops == ()
        assert d1.link == plan.link  # link faults persist (reliable layer)
        assert reseed(plan, 2).seed != d1.seed

    def test_transient_plan_deterministic(self):
        tp = transient_plan(11, 4, failstop_rate=0.5)
        draws = [tp(a) for a in range(10)]
        assert draws == [tp(a) for a in range(10)]  # pure function of seed
        assert any(p.failstops for p in draws)
        assert any(not p.failstops for p in draws)
        for p in draws:
            for fs in p.failstops:
                assert 1 <= fs.rank < 4  # rank 0 (the root) never dies


class TestRetryExecution:
    def test_retry_succeeds_bit_identical(self):
        baseline = spmd_run(raw_sum_job, 4)
        with Engine(4) as engine:
            handle = engine.submit(
                raw_sum_job, fault_plan=KILL_RANK_1,
                retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.001),
            )
            res = handle.result(timeout=30.0)
            stats = engine.stats()
        assert handle.attempt == 2  # one crash, one clean re-run
        assert res.returns == baseline.returns
        assert res.clocks == baseline.clocks
        assert res.time == baseline.time
        assert stats["retried"] == 1
        assert stats["completed"] == 1 and stats["failed"] == 0

    def test_exhausted_retries_surface_last_error(self):
        with Engine(4) as engine:
            handle = engine.submit(
                raw_sum_job, fault_plan=always_failstop,
                retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.001),
            )
            with pytest.raises(SpmdError) as exc:
                handle.result(timeout=60.0)
            stats = engine.stats()
        assert handle.attempt == 2
        assert handle.status == "failed"
        # The terminal error is the *last* attempt's, diagnostics intact.
        assert exc.value.failures
        assert exc.value.rank_states
        assert stats["retried"] == 1 and stats["failed"] == 1

    def test_retry_on_filters_error_types(self, monkeypatch):
        # Only RETRY_ON errors earn another attempt: a reaped job's
        # SpmdTimeout is terminal on its first attempt under a policy.
        monkeypatch.setattr(resilience, "TICK_INTERVAL", 0.02)
        monkeypatch.setattr(resilience, "REAP_GRACE", 0.05)
        release = threading.Event()

        def stuck(comm):
            release.wait(8.0)

        try:
            with Engine(2) as engine:
                handle = engine.submit(
                    stuck, timeout=0.1,
                    retry_policy=RetryPolicy(max_attempts=3),
                )
                time.sleep(0.5)  # no client waiting: the reaper times it out
                release.set()
                with pytest.raises(SpmdTimeout, match="reaped"):
                    handle.result(timeout=10.0)
                assert handle.attempt == 1
                assert engine.stats()["retried"] == 0
        finally:
            release.set()

    def test_retry_readmitted_by_supervisor_after_backoff(self, monkeypatch):
        """A failed attempt has one way back into the queue: the backoff
        heap, drained by the supervisor's tick — never the worker thread
        that finalized the attempt, never before its backoff is up —
        and the books and the bytes match a fault-free run's."""
        readmitted_on = []
        readmit = Scheduler.readmit

        def spy(sched, job, plan, now):
            readmitted_on.append(threading.current_thread().name)
            return readmit(sched, job, plan, now)

        monkeypatch.setattr(Scheduler, "readmit", spy)
        policy = RetryPolicy(max_attempts=3, backoff_base=0.2)
        telemetry = EngineTelemetry(4)
        with Engine(4, telemetry=telemetry) as engine:
            clean = engine.submit(raw_sum_job).result(timeout=30.0)
            t0 = time.perf_counter()
            handle = engine.submit(
                raw_sum_job, fault_plan=KILL_RANK_1, retry_policy=policy
            )
            res = handle.result(timeout=30.0)
            waited = time.perf_counter() - t0
            stats = engine.stats()
        assert readmitted_on == ["engine-supervisor"]
        assert waited >= policy.backoff_seconds(1, handle.job_id)
        assert handle.attempt == 2
        assert (stats["retried"], stats["completed"], stats["failed"]) == (
            1, 2, 0
        )
        # One lifecycle per attempt: the crashed one ends "retrying".
        states = [
            (lc.job_id, lc.attempt, lc.state) for lc in telemetry.recent_jobs()
        ]
        assert sorted(states) == [
            (handle.job_id - 1, 1, "completed"),  # the fault-free run
            (handle.job_id, 1, "retrying"),
            (handle.job_id, 2, "completed"),
        ]
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["engine.jobs.retried"] == 1
        assert counters["engine.jobs.completed"] == 2
        for got, want in zip(res.returns, clean.returns):
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert res.clocks == clean.clocks

    def test_attempt_is_one_without_retries(self):
        with Engine(2) as engine:
            handle = engine.submit(raw_sum_job)
            handle.result()
        assert handle.attempt == 1

    def test_callable_plan_without_policy_uses_attempt_zero(self):
        tp = transient_plan(3, 4, failstop_rate=1.0, lossy=False)
        assert tp(0).failstops  # this seed's first draw kills a rank
        with Engine(4) as engine:
            handle = engine.submit(raw_sum_job, fault_plan=tp)
            with pytest.raises(SpmdError):
                handle.result(timeout=30.0)
        assert handle.attempt == 1  # no policy, no retry


class TestCancelInTheFinalizeWindow:
    """A ``cancel()`` that lands after the last rank's ``_finalize`` has
    returned and before ``_rank_done`` re-takes the engine lock used to
    find the job already marked "retrying", take it terminal, and then
    be counted (and filed in the telemetry history) a second time when
    ``_rank_done`` got the lock.  The transition out of "running" is one
    critical section now, so the cancel is seen exactly once."""

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_cancel_is_counted_once(self, monkeypatch, telemetry):
        def always_raises(comm):
            raise ValueError("boom")

        cancelled = []
        finalize = Engine._finalize

        def finalize_then_cancel(engine, job):
            out = finalize(engine, job)
            if not cancelled:  # the first attempt's window, exactly once
                cancelled.append(handle.cancel())
            return out

        monkeypatch.setattr(Engine, "_finalize", finalize_then_cancel)
        tel = EngineTelemetry(2) if telemetry else None
        with Engine(2, telemetry=tel) as engine, watch_conservation(engine):
            handle = engine.submit(
                always_raises,
                retry_policy=RetryPolicy(max_attempts=3, backoff_base=0.2),
            )
            with pytest.raises(JobCancelled):
                handle.result(timeout=30.0)
            assert engine.drain(timeout=30.0)
            stats = engine.stats()
        assert cancelled == [True]
        assert handle.status == "cancelled"
        assert (stats["submitted"], stats["cancelled"]) == (1, 1)
        assert (stats["retried"], stats["failed"]) == (0, 0)
        if tel is not None:
            history = tel.recent_jobs()
            assert len(history) == 1 and history[0].state == "cancelled"
            assert len(tel.intervals()) == 2  # one per member rank


def _fails_once():
    """A 1-rank job body that raises on its first run only."""
    runs = []

    def job(comm):
        runs.append(comm.rank)
        if len(runs) == 1:
            raise ValueError("first attempt")
        return len(runs)

    return job


class TestNoStrandedJobs:
    """A job is in exactly one of pending / running / parked / terminal
    at every instant, so ``drain()`` and ``shutdown()`` cannot return
    over one that is in none of them."""

    def test_drain_waits_out_a_slow_plan_callable(self):
        """The next attempt's plan comes from the user's ``attempt ->
        plan`` callable, which may be slow.  The job used to be popped
        off the backoff heap first and queued after: in between it was
        nowhere, ``drain()`` returned at once and ``shutdown`` left it
        pending forever."""
        resolving = threading.Event()

        def slow_plan(attempt):
            if attempt:
                resolving.set()
                time.sleep(0.3)
            return None

        with Engine(2) as engine, watch_conservation(engine):
            handle = engine.submit(
                _fails_once(), nprocs=1, fault_plan=slow_plan,
                retry_policy=RetryPolicy(backoff_base=0.001),
            )
            assert resolving.wait(10.0)
            assert engine.stats()["retry_backlog"] == 1  # still parked
            assert engine.drain(timeout=10.0)
            assert handle.done() and handle.status == "done"
            stats = engine.stats()
        assert handle.result().returns == [2] and handle.attempt == 2
        assert (stats["submitted"], stats["completed"], stats["retried"]) == (
            1, 1, 1
        )

    def test_a_plan_callable_that_raises_fails_the_job(self):
        def broken_plan(attempt):
            if attempt:
                raise RuntimeError("no plan for you")
            return None

        with Engine(2) as engine, watch_conservation(engine):
            handle = engine.submit(
                _fails_once(), nprocs=1, fault_plan=broken_plan,
                retry_policy=RetryPolicy(backoff_base=0.001),
            )
            with pytest.raises(RuntimeError, match="no plan for you"):
                handle.result(timeout=10.0)
            assert engine.drain(timeout=10.0)
            stats = engine.stats()
        assert (stats["retried"], stats["failed"]) == (1, 1)

    def test_expired_graceful_shutdown_cancels_what_is_left(self):
        """Three pool-wide 0.2 s jobs, 0.05 s to drain them: the first
        is running, two are queued.  The expired drain used to fall
        straight through to the sentinels, the first job's ranks then
        dispatched the second into boxes nobody reads, and the closed
        engine reported one job running and one pending forever."""
        engine = Engine(4)
        with watch_conservation(engine):
            handles = [
                engine.submit(lambda comm: time.sleep(0.2)) for _ in range(3)
            ]
            engine.shutdown(drain=True, timeout=0.05)
            for handle in handles:
                assert handle.wait(5.0)  # the running one unwinds first
                with pytest.raises(JobCancelled):
                    handle.result()
        stats = engine.stats()
        assert stats["inflight"] == stats["pending"] == 0
        assert stats["cancelled"] == 3 and conserved(stats)


class TestRetryDeterminismGrid:
    """ISSUE 8 satellite: seeded plan x policy grid — eventual results
    must be byte-identical to the fault-free baseline, per operator."""

    @pytest.mark.parametrize("nprocs", [4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "op_factory", [SumOp, MaxOp], ids=["sum", "max"]
    )
    def test_grid(self, seed, nprocs, op_factory):
        job = _raw_job(op_factory)
        baseline = spmd_run(job, nprocs)
        # Attempt 0 crashes rank 1 under a lossy link; the reseeded
        # attempt keeps the (bit-transparent) link faults but drops the
        # fail-stop, so attempt 2 must land the baseline answer exactly.
        plan = FaultPlan(
            seed=seed, failstops=(FailStop(rank=1, at_op=1),),
            link=LinkFaults(drop_rate=0.15, dup_rate=0.1),
        )
        policy = RetryPolicy(max_attempts=3, backoff_base=0.001, seed=seed)
        with Engine(nprocs) as engine:
            first = engine.submit(
                job, fault_plan=plan, retry_policy=policy
            ).result(timeout=60.0)
            again = engine.submit(
                job, fault_plan=plan, retry_policy=policy
            ).result(timeout=60.0)
        assert first.returns == baseline.returns
        assert again.returns == baseline.returns
        assert first.clocks == again.clocks


class TestChaosSoak:
    """EX-ENGINE-CHAOS: a chaos tenant (a transient fault plan per job,
    retried) beside a healthy tenant on one 8-rank pool.  Fault draws are
    string-seeded, so the outcome is deterministic, not statistical."""

    def test_chaos_tenant_heals_beside_a_clean_healthy_tenant(self):
        policy = RetryPolicy(max_attempts=8, backoff_base=0.002)
        with Engine(8) as engine, watch_conservation(engine):
            baseline = engine.submit(raw_sum_job, nprocs=4).result()
            chaos = [
                engine.submit(
                    raw_sum_job, nprocs=4, retry_policy=policy, timeout=60.0,
                    fault_plan=transient_plan(k, 4, failstop_rate=0.6),
                )
                for k in range(24)
            ]
            healthy = [
                engine.submit(raw_sum_job, nprocs=4, timeout=60.0)
                for _ in range(16)
            ]
            returns = [h.result(timeout=120.0).returns for h in chaos + healthy]
            assert engine.drain(timeout=60.0)
            stats = engine.stats()
        # Every chaos job eventually lands the fault-free bytes; the
        # healthy tenant never needs a second attempt.
        assert returns == [baseline.returns] * 40
        assert [h.attempt for h in healthy] == [1] * 16
        assert sum(h.attempt - 1 for h in chaos) == stats["retried"] > 0
        assert stats["quarantines"] > 0 and stats["revivals"] > 0


class TestLeakedMessages:
    def test_midcollective_failstop_counts_leaked_messages(self):
        telemetry = EngineTelemetry(4)
        with Engine(4, telemetry=telemetry) as engine:
            with pytest.raises(SpmdError):
                engine.submit(
                    raw_sum_job, fault_plan=KILL_RANK_1
                ).result(timeout=30.0)
            stats = engine.stats()
        # A rank died mid-collective: messages addressed to it were
        # swept at finalize and must be visible in both surfaces.
        assert stats["leaked_messages_drained"] > 0
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert (
            counters["engine.jobs.leaked_messages"]
            == stats["leaked_messages_drained"]
        )

    def test_clean_jobs_leak_nothing(self):
        telemetry = EngineTelemetry(4)
        with Engine(4, telemetry=telemetry) as engine:
            engine.submit(raw_sum_job).result()
        counters = telemetry.snapshot()["metrics"]["counters"]
        assert counters["engine.jobs.leaked_messages"] == 0


class TestQuarantineAndDegraded:
    @pytest.fixture(autouse=True)
    def frozen(self, monkeypatch):
        # Probes pushed far out: these tests pin ranks *in* quarantine.
        monkeypatch.setattr(resilience, "TICK_INTERVAL", 0.02)
        monkeypatch.setattr(resilience, "PROBE_AFTER", 300.0)

    def _kill_two_ranks(self, engine):
        plan = FaultPlan(
            seed=1,
            failstops=(FailStop(rank=1, at_op=1), FailStop(rank=2, at_op=1)),
        )
        with pytest.raises(SpmdError):
            engine.submit(
                raw_sum_job, nprocs=4, fault_plan=plan
            ).result(timeout=30.0)

    def test_dead_ranks_quarantined_and_status_degraded(self):
        with Engine(4) as engine:
            assert engine.status() == "ok"
            self._kill_two_ranks(engine)
            stats = engine.stats()
            assert stats["quarantined_ranks"] == [1, 2]
            assert stats["effective_capacity"] == 2
            assert stats["quarantines"] == 2
            assert stats["degraded"] is True
            assert engine.status() == "degraded"
        assert engine.status() == "closed"

    def test_degraded_submit_raises_or_waits(self, monkeypatch):
        with Engine(4) as engine:
            self._kill_two_ranks(engine)
            with pytest.raises(EngineDegraded, match="2 quarantined"):
                engine.submit(raw_sum_job, nprocs=4, block=False)
            with pytest.raises(EngineDegraded, match="waited 0.05 s"):
                engine.submit(raw_sum_job, nprocs=4, queue_timeout=0.05)
            # EngineDegraded extends EngineSaturated: existing
            # backpressure handlers keep working unmodified.
            assert issubclass(EngineDegraded, EngineSaturated)
            # Jobs that still fit the effective capacity run normally.
            res = engine.submit(raw_sum_job, nprocs=2).result(timeout=30.0)
            assert res.returns == spmd_run(raw_sum_job, 2).returns
            # A blocking submit of the full gang waits for revival and
            # then runs at its requested size: a degraded pool has one
            # behaviour, never a smaller gang.
            monkeypatch.setattr(resilience, "PROBE_AFTER", 0.05)
            res = engine.submit(raw_sum_job, nprocs=4).result(timeout=30.0)
            assert res.nprocs == 4
            assert res.returns == spmd_run(raw_sum_job, 4).returns
            assert engine.stats()["revivals"] == 2


class TestProbeAndRevive:
    def test_quarantined_rank_is_probed_back(self, monkeypatch):
        monkeypatch.setattr(resilience, "TICK_INTERVAL", 0.02)
        monkeypatch.setattr(resilience, "PROBE_AFTER", 0.05)
        with Engine(4) as engine:
            with pytest.raises(SpmdError):
                engine.submit(
                    raw_sum_job, nprocs=4, fault_plan=KILL_RANK_1
                ).result(timeout=30.0)
            assert engine.stats()["quarantined_ranks"] == [1]
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                stats = engine.stats()
                if not stats["quarantined_ranks"]:
                    break
                time.sleep(0.02)
            assert stats["quarantined_ranks"] == []
            assert stats["revivals"] == 1
            assert stats["effective_capacity"] == 4
            assert engine.status() == "ok"
            # The revived rank serves full-pool gangs again.
            res = engine.submit(raw_sum_job, nprocs=4).result(timeout=30.0)
            assert res.returns == spmd_run(raw_sum_job, 4).returns


class TestReaper:
    def test_stuck_job_is_reaped_server_side(self, monkeypatch):
        release = threading.Event()

        def stuck(comm):
            # Rank 0 blocks in a receive (abortable); rank 1 idles in
            # plain Python, so the per-collective deadlock watchdog
            # never fires — only the supervisor's deadline escalation
            # can unwedge this job.
            if comm.rank == 0:
                comm.recv(source=1, tag=5)
            else:
                release.wait(8.0)

        monkeypatch.setattr(resilience, "TICK_INTERVAL", 0.02)
        monkeypatch.setattr(resilience, "REAP_GRACE", 0.05)
        try:
            with Engine(2) as engine:
                handle = engine.submit(stuck, timeout=0.1)
                time.sleep(0.5)  # no client waiting: server-side only
                release.set()
                with pytest.raises(SpmdTimeout, match="reaped") as exc:
                    handle.result(timeout=10.0)
                assert exc.value.rank_states
                assert engine.stats()["reaped"] == 1
                # The pool is whole again after the unwind.
                res = engine.submit(raw_sum_job).result(timeout=30.0)
                assert res.returns == spmd_run(raw_sum_job, 2).returns
        finally:
            release.set()

    def test_job_inside_its_grace_is_left_to_the_client(self, monkeypatch):
        release = threading.Event()

        def gated(comm):
            release.wait(8.0)
            return comm.rank

        monkeypatch.setattr(resilience, "TICK_INTERVAL", 0.02)
        try:
            with Engine(2) as engine:
                handle = engine.submit(gated, timeout=0.1)
                time.sleep(0.4)  # past the deadline, inside REAP_GRACE
                assert handle.status == "running"  # nobody reaped it
                release.set()
                handle.wait(5.0)
                assert engine.stats()["reaped"] == 0
        finally:
            release.set()


class TestShutdownJoin:
    def test_default_join_timeout_documented_and_overridable(self):
        assert resilience.JOIN_TIMEOUT == 5.0
        engine = Engine(2)
        engine.submit(raw_sum_job).result()
        assert engine.shutdown() is True
        assert engine.shutdown() is True  # idempotent, same verdict

    def test_failed_join_returns_false_and_warns(self, caplog):
        release = threading.Event()

        def wedged(comm):
            release.wait(8.0)
            return comm.rank

        engine = Engine(2)
        try:
            handle = engine.submit(wedged)
            # The wedged ranks sit in plain Python: abort can't wake
            # them, so the join budget expires and shutdown says so
            # instead of silently "succeeding".
            with caplog.at_level("WARNING", logger="repro.engine"):
                clean = engine.shutdown(drain=False, timeout=0.2)
            assert clean is False
            assert any(
                "failed to join" in rec.message for rec in caplog.records
            )
            assert engine.shutdown() is False  # verdict is sticky
        finally:
            release.set()
            handle.wait(5.0)

    def test_a_shut_down_engine_is_freed_without_the_cycle_collector(self):
        """The supervisor holds its engine weakly, so an engine that has
        shut down — ``spmd_run``'s transient one included — is freed by
        reference counting alone, world and mailboxes with it, instead
        of waiting as cyclic garbage for the next collection."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            engine = Engine(2)
            assert engine.submit(raw_sum_job).result().returns
            engine.shutdown()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
            worlds = []

            def job(comm):
                worlds.append(weakref.ref(comm.context.world))
                return raw_sum_job(comm)

            assert spmd_run(job, 4).returns
            assert [w() for w in worlds] == [None] * 4
        finally:
            gc.enable()
