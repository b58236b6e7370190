"""The engine's scheduler, without a thread.

``repro.engine.scheduler.Scheduler`` is plain state: every move is one
method and ``now`` is an argument, so every interleaving of moves the
engine's threads could produce is a sequence of calls.  A hypothesis
state machine walks those sequences and checks, after every step, that
each job is in exactly one container, that the books balance, that the
rank sets partition the pool and that the queue is FIFO.
"""

from __future__ import annotations

import ast
import heapq
import inspect

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine import RetryPolicy, resilience, scheduler
from repro.engine.job import _Job
from repro.engine.scheduler import Scheduler, place_gang
from repro.errors import (
    EngineDegraded,
    EngineSaturated,
    JobCancelled,
    SpmdError,
    SpmdTimeout,
)
from repro.runtime.fabric import fat_tree, flat, multi_node
from tests.conftest import conserved

POOL = 8
TERMINAL = ("done", "failed", "cancelled")


def make_job(nprocs, *, timeout=None, retry_policy=None):
    return _Job(
        None, (), nprocs, timeout=timeout, tracer=None, fault_plan=None,
        label="j", retry_policy=retry_policy,
    )


# ---------------------------------------------------------------------------
# place_gang: the placement policy as a table
# ---------------------------------------------------------------------------

#: (fabric, free ranks, gang size) -> members.  multi_node(4): nodes
#: {0-3}, {4-7}, ...; fat_tree(2, 2): nodes of 2, racks of 2 nodes.
PLACEMENT = [
    # Flat: the lowest-numbered free ranks, whatever the holes.
    (flat(), range(8), 3, (0, 1, 2)),
    (flat(), [1, 3, 4, 6, 7], 3, (1, 3, 4)),
    (flat(), [5], 1, (5,)),
    # One node fits: the *tightest* one, not the first.
    (multi_node(4), range(8), 4, (0, 1, 2, 3)),
    (multi_node(4), [2, 3, 4, 5, 6, 7], 4, (4, 5, 6, 7)),
    (multi_node(4), [0, 1, 2, 3, 6, 7], 2, (6, 7)),
    (multi_node(4), [0, 1, 2, 5, 6, 7], 3, (0, 1, 2)),  # tie: lowest node
    (multi_node(4), [1, 2, 3, 4], 1, (4,)),
    # No node fits: fill from the fullest nodes, members sorted.
    (multi_node(4), [0, 1, 4, 5, 6], 4, (0, 4, 5, 6)),
    (multi_node(4), [0, 4, 8, 9, 10, 13, 14], 5, (8, 9, 10, 13, 14)),
    (multi_node(4), range(8), 8, tuple(range(8))),
    # A rack fits: the tightest rack, its fullest nodes first.
    (fat_tree(2, 2), [1, 4, 5, 6], 3, (4, 5, 6)),
    (fat_tree(2, 2), [0, 1, 2, 4, 5, 6, 7], 3, (0, 1, 2)),
    (fat_tree(2, 2), [0, 2, 3, 4, 5, 6, 7], 3, (0, 2, 3)),
    # No rack fits: span racks by descending node free count.
    (fat_tree(2, 2), [0, 1, 2, 4, 5, 6], 5, (0, 1, 2, 4, 5)),
    (fat_tree(2, 2), [0, 2, 4, 5, 7], 4, (0, 2, 4, 5)),
]


@pytest.mark.parametrize(
    "topology, free, k, members", PLACEMENT,
    ids=[f"{t.signature}-{list(f)}-{k}" for t, f, k, _ in PLACEMENT],
)
def test_place_gang(topology, free, k, members):
    assert place_gang(set(free), topology, k) == members
    assert place_gang(reversed(list(free)), topology, k) == members


# ---------------------------------------------------------------------------
# The module is pure
# ---------------------------------------------------------------------------


def test_scheduler_imports_no_thread_clock_queue_telemetry_or_world():
    banned = ("threading", "time", "queue", "repro.obs", "repro.runtime.world")
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(scheduler))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    for name in imported:
        assert not any(
            name == b or name.startswith(b + ".") for b in banned
        ), f"scheduler.py imports {name}"


def test_policy_constants_are_read_by_the_scheduler_only():
    """REAP_GRACE, PROBE_AFTER and CAPACITY_FLOOR decide what is overdue,
    due for a probe, or degraded; nothing but the scheduler reads them."""
    from repro.engine import core, job

    def attributes(module):
        tree = ast.parse(inspect.getsource(module))
        return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}

    policy = {"REAP_GRACE", "PROBE_AFTER", "CAPACITY_FLOOR"}
    assert policy <= attributes(scheduler)
    assert not policy & (attributes(core) | attributes(job))


# ---------------------------------------------------------------------------
# Pinned scenarios
# ---------------------------------------------------------------------------


def _fail(sched, job, now):
    """Run a placed job's ranks out and settle it with a retryable error."""
    for w in job.members:
        last = sched.release(job, w)
    assert last
    return sched.settle(job, None, SpmdError({0: ValueError("x")}), now)


def test_backoffs_are_the_pinned_schedule():
    """``(seed, job_id, attempt)`` → the recorded seconds, bit for bit
    (tests/test_engine_resilience.py pins the same stream)."""
    sched = Scheduler(POOL, 4, flat())
    job = make_job(2, retry_policy=RetryPolicy())
    sched.admit(job, 0.0)
    assert job.job_id == 1
    for attempt, seconds in ((1, 0.009027499680245682),
                             (2, 0.01975057801021572)):
        assert sched.place() == (job,)
        assert _fail(sched, job, 0.0) == "retrying"
        assert job.attempt == attempt
        assert sched.parked[0][0] == seconds
        assert sched.due(seconds - 1e-9) is None
        assert sched.due(seconds) is job
        assert sched.readmit(job, None, seconds)
    sched.place()
    assert _fail(sched, job, 0.0) == "failed"  # attempt 3 of 3
    assert sched.stats()["retried"] == 2 and sched.idle()


def test_a_job_withdrawn_while_its_plan_resolves_is_not_readmitted():
    sched = Scheduler(POOL, 4, flat())
    job = make_job(1, retry_policy=RetryPolicy())
    sched.admit(job, 0.0)
    sched.place()
    _fail(sched, job, 0.0)
    assert sched.due(1.0) is job  # the engine now resolves the plan...
    assert sched.withdraw(job, "cancelled", JobCancelled("c"))
    assert not sched.readmit(job, None, 1.0)  # ...and finds it gone
    assert job.status == "cancelled" and sched.idle()
    assert conserved(sched.stats())


def test_closing_readmits_at_once_and_a_sweep_leaves_nothing_to_place():
    sched = Scheduler(4, 4, flat())
    parked = make_job(4, retry_policy=RetryPolicy(backoff_base=1.0))
    queued, running = make_job(4), make_job(4)
    sched.admit(parked, 0.0)
    sched.place()
    _fail(sched, parked, 0.0)
    sched.admit(running, 0.0)
    sched.admit(queued, 0.0)
    assert sched.place() == (running,)
    assert sched.due(0.0) is None
    sched.close()
    assert sched.due(0.0) is parked  # a graceful drain runs retries out
    unplaced, aborted = sched.sweep()
    assert unplaced == [queued, parked] and aborted == [running]
    assert parked.status == queued.status == "cancelled"
    for w in running.members:
        sched.release(running, w)
        assert sched.place() == ()  # freed ranks attract nothing
    assert sched.settle(running, "result", None, 0.0) == "cancelled"
    assert sched.idle() and conserved(sched.stats())
    assert sched.stats()["cancelled"] == 3


def test_a_closed_scheduler_parks_no_retry():
    sched = Scheduler(4, 4, flat())
    job = make_job(2, retry_policy=RetryPolicy())
    sched.admit(job, 0.0)
    sched.place()
    sched.close()
    assert _fail(sched, job, 0.0) == "failed"  # its waiter is not stranded
    assert sched.idle() and sched.stats()["retried"] == 0


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------


class SchedulerMachine(RuleBasedStateMachine):
    """Model: ``order`` mirrors the pending queue, ``held`` maps every
    running job to the ranks it has not released yet, ``jobs`` is every
    job ever admitted."""

    def __init__(self):
        super().__init__()
        self.setup(flat(), 3)

    @initialize(
        topology=st.sampled_from([flat(), multi_node(4), fat_tree(2, 2)]),
        depth=st.integers(1, 5),
    )
    def setup(self, topology, depth):
        self.sched = Scheduler(POOL, depth, topology)
        self.now = 0.0
        self.jobs: list[_Job] = []
        self.order: list[_Job] = []
        self.held: dict[_Job, set[int]] = {}
        self.swept = False

    def _in(self, *statuses):
        return [j for j in self.jobs if j.status in statuses]

    # -- admission ----------------------------------------------------------

    @rule(
        k=st.integers(1, POOL),
        timeout=st.sampled_from([None, 0.5, 2.0]),
        attempts=st.sampled_from([0, 1, 2, 3]),
        seed=st.integers(0, 3),
    )
    def submit(self, k, timeout, attempts, seed):
        sched = self.sched
        if sched.closed:
            return
        refusal = sched.refusal(k)
        if refusal is not None:
            exc_type, reason = refusal
            degraded = k > POOL - len(sched.quarantined)
            assert exc_type is (EngineDegraded if degraded else EngineSaturated)
            assert degraded or len(sched.pending) >= sched.queue_depth
            sched.reject()
            return
        policy = attempts and RetryPolicy(
            max_attempts=attempts, backoff_base=0.05, seed=seed
        )
        job = make_job(k, timeout=timeout, retry_policy=policy or None)
        sched.admit(job, self.now)
        assert job.job_id == len(self.jobs) + 1 and job.status == "pending"
        self.jobs.append(job)
        self.order.append(job)

    # -- placement, release, settle -----------------------------------------

    @rule()
    def place(self):
        sched = self.sched
        free = set(sched.free)
        for job in sched.place():
            assert job is self.order.pop(0)  # head of line, in order
            assert job.members == place_gang(free, sched.topology, job.nprocs)
            assert len(job.members) == job.nprocs and set(job.members) <= free
            assert job.status == "running"
            free -= set(job.members)
            self.held[job] = set(job.members)
            job.t0 = self.now  # what _Job.start stamps
        assert free == sched.free
        assert not self.order or self.order[0].nprocs > len(free)

    @precondition(lambda self: any(self.held.values()))
    @rule(data=st.data())
    def release(self, data):
        job = data.draw(st.sampled_from(
            sorted((j for j, r in self.held.items() if r),
                   key=lambda j: j.job_id)
        ))
        rank = data.draw(st.sampled_from(sorted(self.held[job])))
        self.held[job].discard(rank)
        assert self.sched.release(job, rank) == (not self.held[job])
        assert (rank in self.sched.free) != (rank in self.sched.quarantined)

    @precondition(lambda self: any(self.held.values()))
    @rule(data=st.data())
    def run_out(self, data):
        """Every remaining rank of one job comes back, in some order."""
        job = data.draw(st.sampled_from(
            sorted((j for j, r in self.held.items() if r),
                   key=lambda j: j.job_id)
        ))
        ranks = data.draw(st.permutations(sorted(self.held[job])))
        self.held[job].clear()
        assert [self.sched.release(job, w) for w in ranks] == (
            [False] * (len(ranks) - 1) + [True]
        )

    @precondition(lambda self: any(not r for r in self.held.values()))
    @rule(
        data=st.data(),
        outcome=st.sampled_from(["ok", "ok", "retryable", "fatal"]),
        leaked=st.integers(0, 3),
        kill=st.booleans(),
    )
    def settle(self, data, outcome, leaked, kill):
        sched = self.sched
        job = data.draw(st.sampled_from(
            sorted((j for j, r in self.held.items() if not r),
                   key=lambda j: j.job_id)
        ))
        del self.held[job]
        err = {
            "ok": None,
            "retryable": SpmdError({0: ValueError("transient")}),
            "fatal": SpmdTimeout("not in RETRY_ON"),
        }[outcome]
        dead = job.members[:1] if kill else ()
        policy, attempt = job.retry_policy, job.attempt
        if job.cancelled:
            want = "cancelled"
        elif outcome == "ok":
            want = "failed" if job.timed_out else "done"
        elif (
            outcome == "retryable" and policy is not None
            and attempt < policy.max_attempts and not sched.closed
        ):
            want = "retrying"
        else:
            want = "failed"
        before = dict(sched.counts)
        assert sched.settle(job, "result", err, self.now, leaked, dead) == want
        assert job.status == want
        assert (
            sched.counts["leaked_messages_drained"]
            == before["leaked_messages_drained"] + leaked
        )
        assert set(dead) <= set(sched.quarantined)
        if want == "retrying":
            due = [e[0] for e in sched.parked if e[2] is job]
            assert due == [
                self.now + policy.backoff_seconds(attempt, job.job_id)
            ]
            assert sched.counts["retried"] == before["retried"] + 1
        elif want == "done":
            assert job.result == "result" and job.error is None
        elif want == "cancelled":
            assert isinstance(job.error, JobCancelled)
        elif job.timed_out and outcome == "ok":
            assert job.error is job.timeout_error

    # -- retries ------------------------------------------------------------

    @rule(cancel_in_the_window=st.booleans())
    def admit_due_retry(self, cancel_in_the_window):
        sched = self.sched
        job = sched.due(self.now)
        if job is None:
            assert not sched.parked or (
                not sched.closed and sched.parked[0][0] > self.now
            )
            return
        assert job.status == "retrying"
        attempt = job.attempt
        if cancel_in_the_window:  # while the engine resolves the plan
            assert sched.withdraw(job, "cancelled", JobCancelled("c"))
            assert not sched.readmit(job, "plan", self.now)
            assert job.status == "cancelled" and job.attempt == attempt
            return
        assert sched.readmit(job, "plan", self.now)
        assert (job.status, job.attempt) == ("pending", attempt + 1)
        assert job.fault_plan == "plan" and not job.timed_out
        assert sched.pending[-1] is job
        self.order.append(job)

    # -- cancel, deadlines --------------------------------------------------

    @precondition(lambda self: self.jobs)
    @rule(data=st.data())
    def cancel(self, data):
        sched = self.sched
        job = data.draw(st.sampled_from(self.jobs))
        was = job.status
        withdrawn = sched.withdraw(job, "cancelled", JobCancelled("c"))
        assert withdrawn == (was in ("pending", "retrying"))
        if withdrawn:
            assert job.status == "cancelled" and job.cancelled
            if was == "pending":
                self.order.remove(job)
        else:
            assert sched.flag_cancelled(job) == (was == "running")
            assert job.status == was

    @rule()
    def reap(self):
        sched, grace = self.sched, resilience.REAP_GRACE
        overdue = sched.overdue(self.now)
        assert set(overdue) == {
            j for j in self._in("running")
            if j.timeout is not None and not j.cancelled and not j.timed_out
            and self.now - j.t0 > j.timeout + grace
        }
        want = [
            j for j in self.order
            if j.timeout is not None
            and self.now - j.admitted_at > j.timeout + grace
        ]
        reaped = sched.counts["reaped"]
        assert sched.expire(self.now) == want
        for job in want:
            assert job.status == "failed"
            assert isinstance(job.error, SpmdTimeout)
            self.order.remove(job)
        for job in overdue:
            err = SpmdTimeout("deadline")
            assert sched.time_out(job, err, True)
            assert not sched.time_out(job, SpmdTimeout("again"), True)
            assert job.timeout_error is err
        assert sched.counts["reaped"] == reaped + len(want) + len(overdue)

    @precondition(lambda self: self._in("running"))
    @rule(data=st.data())
    def client_timeout(self, data):
        job = data.draw(st.sampled_from(self._in("running")))
        reaped, first = self.sched.counts["reaped"], not job.timed_out
        err = SpmdTimeout("client")
        assert self.sched.time_out(job, err, False) == first
        assert (job.timeout_error is err) == first
        assert self.sched.counts["reaped"] == reaped

    # -- rank health --------------------------------------------------------

    @rule(ranks=st.sets(st.integers(0, POOL - 1), max_size=3))
    def quarantine(self, ranks):
        fresh = ranks - set(self.sched.quarantined)
        count = self.sched.counts["quarantines"]
        self.sched.quarantine(sorted(ranks), self.now)
        assert ranks <= set(self.sched.quarantined)
        assert self.sched.counts["quarantines"] == count + len(fresh)

    @rule(ok=st.booleans(), swept=st.integers(0, 2))
    def probe(self, ok, swept):
        sched = self.sched
        due = sched.probe_due(self.now)
        assert due == [] if sched.closed else set(due) == {
            w for w, since in sched.quarantined.items()
            if self.now - since >= resilience.PROBE_AFTER
        }
        held = set().union(*self.held.values())
        for w in due:
            if w in held:
                continue  # its box is busy: the probe has not run yet
            assert sched.revive(w, ok, self.now, swept) == ok
            assert (w in sched.free) == ok
            assert w not in sched.probe_due(self.now)

    # -- time and closing ---------------------------------------------------

    @rule(dt=st.sampled_from([0.0, 0.01, 0.1, 0.3, 1.0, 4.0]))
    def tick(self, dt):
        self.now += dt

    @rule()
    def close(self):
        self.sched.close()
        assert self.sched.status() == "closed"

    @rule()
    def sweep(self):
        sched = self.sched
        running, parked = self._in("running"), self._in("retrying")
        unplaced, aborted = sched.sweep()
        assert unplaced[:len(self.order)] == self.order
        assert set(unplaced[len(self.order):]) == set(parked)
        assert aborted == running and all(j.cancelled for j in running)
        assert all(j.status == "cancelled" for j in unplaced)
        self.order.clear()
        self.swept = True

    # -- what holds after every step ----------------------------------------

    @invariant()
    def one_container_per_job(self):
        sched = self.sched
        parked = [e[2] for e in sched.parked]
        assert list(sched.pending) == self.order == self._in("pending")
        assert sched.running == set(self._in("running")) == set(self.held)
        assert sorted(parked, key=id) == sorted(self._in("retrying"), key=id)
        for job in self._in(*TERMINAL):
            assert job not in sched.pending and job not in sched.running
            assert job not in parked
        assert len(sched.pending) <= sched.queue_depth
        heap = list(sched.parked)
        heapq.heapify(heap)
        assert heap[:1] == sched.parked[:1]  # the head is the minimum

    @invariant()
    def the_books_balance(self):
        stats = self.sched.stats()
        assert conserved(stats)
        assert stats["submitted"] == len(self.jobs)
        for status, key in (("done", "completed"), ("failed", "failed"),
                            ("cancelled", "cancelled")):
            assert stats[key] == len(self._in(status))
        assert stats["inflight"] <= stats["peak_inflight"]
        assert self.sched.idle() == (
            stats["pending"] + stats["inflight"] + stats["retry_backlog"] == 0
        )

    @invariant()
    def rank_sets_partition_the_pool(self):
        sched = self.sched
        held = set().union(*self.held.values())
        assert not sched.free & set(sched.quarantined)
        assert not sched.free & held
        assert sched.free | held | set(sched.quarantined) == set(range(POOL))
        stats = sched.stats()
        assert stats["effective_capacity"] == POOL - len(sched.quarantined)
        assert stats["degraded"] == (
            stats["effective_capacity"] < resilience.CAPACITY_FLOOR * POOL
        )

    @invariant()
    def a_swept_scheduler_places_nothing(self):
        if self.swept:
            assert not self.sched.pending and not self.sched.parked
            assert self.sched.place() == ()


SchedulerMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=60, deadline=None
)
TestSchedulerMachine = SchedulerMachine.TestCase
