"""The engine's recovery moves — cancel, time out, retry, revive — which
a job that succeeds on its first attempt never reaches.  ``Engine``,
``Scheduler`` and ``RetryPolicy`` keep one-line methods that call these
with ``self``; scheduler moves run under the engine lock."""

from __future__ import annotations

import heapq
import random
from typing import TYPE_CHECKING, Any

from repro.engine import resilience
from repro.engine.job import _Job
from repro.errors import JobCancelled, SpmdTimeout

if TYPE_CHECKING:
    from repro.engine.core import Engine
    from repro.engine.scheduler import Scheduler

def cancel_job(self: Engine, job: _Job) -> bool:
    """Cancel ``job`` (see :meth:`JobHandle.cancel`)."""
    with self._cv:
        if self._sched.withdraw(
            job, "cancelled", JobCancelled(f"job {job.job_id} cancelled")
        ):
            self._finished_locked(job)
            return True
        if not self._sched.flag_cancelled(job):
            return False
        world = job.world
    # Abort outside the engine lock: it takes mailbox locks.
    world.abort()
    return True


def abort_timed_out(
    self: Engine, job: _Job, message: str, reaped: bool = False
) -> SpmdTimeout:
    """The one timeout-abort: a running job blew its deadline — as seen
    by a client's ``result()`` or by the reaper — so record the diagnosis
    (once; :meth:`Scheduler.settle` fails the job with it) and unwind the
    job's ranks.  Returns the diagnosis."""
    world = job.world
    err = SpmdTimeout(
        message,
        rank_states=None if world is None else world.rank_states(),
    )
    with self._cv:
        first = job.world is world and self._sched.time_out(job, err, reaped)
    if first:
        world.abort()
    return err


def _probe_fn(comm):
    """Supervisor health probe: one self-send/recv round trip through
    the rank's own mailbox — the minimal proof that the rank's worker
    thread, mailbox and clock plumbing are serviceable again."""
    token = ("engine-probe", comm.rank)
    comm.send(token, comm.rank, tag=0)
    echo = comm.recv(source=comm.rank, tag=0)
    return "ok" if echo == token else "bad"


def probe_rank(self: Engine, w: int) -> tuple[bool, int]:
    """One health probe of quarantined rank ``w``: sweep its mailbox,
    then run a 1-rank probe job on it through the normal worker path
    (never through the scheduler).  Returns ``(passed, swept)``."""
    if not self._threads[w].is_alive():
        return False, 0
    if self._proc_pool is not None and not self._proc_pool.ping(w):
        # Process backend: a quarantined rank only counts revived when
        # its offload worker answers too (restart first).
        if not self._proc_pool.restart_worker(w):
            return False, 0
    # A dead rank can be left holding messages no live job will ever
    # receive (finalize sweeps only the tags the finished job owns).
    swept = self._world.mailboxes[w].drain_where(lambda src, tag: True)
    job = _Job(
        _probe_fn, (), 1,
        timeout=None, tracer=None, fault_plan=None,
        label=f"probe-rank-{w}",
    )
    job.members = (w,)
    with self._cv:
        if self._sched.closed:  # the box may already hold its sentinel
            return False, swept
        job.start(self._world)
        self._boxes[w].put((job, 0, lambda job, _w: _probe_done(self, job)))
    ok = job.done_event.wait(resilience.PROBE_TIMEOUT)
    return ok and job.error is None and job.returns == ["ok"], swept


def _probe_done(self: Engine, job: _Job) -> None:
    _, job.result, job.error = self._finalize(job)
    job.done_event.set()


def flag_cancelled(self: Scheduler, job: Any) -> bool:
    if job.status != "running":
        return False
    job.cancelled = True
    return True


def time_out(self: Scheduler, job: Any, err: SpmdTimeout, reaped: bool) -> bool:
    if job.status != "running" or job.timed_out:
        return False
    job.timed_out, job.timeout_error = True, err
    self.counts["reaped"] += reaped
    return True


def withdraw(self: Scheduler, job: Any, status: str, error: BaseException) -> bool:
    if job.status == "pending":
        self.pending.remove(job)
    elif job.status == "retrying":
        _unpark(self, job)
    else:
        return False
    job.cancelled = status == "cancelled"
    self._finish(job, status, error)
    return True


def _unpark(self: Scheduler, job: Any) -> None:
    self.parked = [e for e in self.parked if e[2] is not job]
    heapq.heapify(self.parked)


def readmit(self: Scheduler, job: Any, plan: Any, now: float) -> bool:
    if job.status != "retrying":
        return False
    _unpark(self, job)
    job.attempt += 1
    job.fault_plan = plan
    job.world, job.members = None, ()
    job.timed_out, job.timeout_error = False, None
    self._enqueue(job, now)
    return True


def revive(self: Scheduler, rank: int, ok: bool, now: float, swept: int) -> bool:
    self.counts["revival_swept_messages"] += swept
    if self.closed or rank not in self.quarantined:
        return False
    if ok:
        del self.quarantined[rank]
        self.free.add(rank)
        self.counts["revivals"] += 1
    else:
        self.quarantined[rank] = now
    return ok


def backoff_seconds(
    self: resilience.RetryPolicy, attempt: int, job_id: int
) -> float:
    delay = min(
        resilience.BACKOFF_MAX,
        self.backoff_base * resilience.BACKOFF_FACTOR ** (attempt - 1),
    )
    if delay > 0.0:
        rng = random.Random(f"retry:{self.seed}:{job_id}:{attempt}")
        delay *= 1.0 + resilience.JITTER * (2.0 * rng.random() - 1.0)
    return delay


def fault_plan_for(self: resilience.RetryPolicy, source, attempt_index: int):
    if source is None:
        return None
    if callable(source):
        return source(attempt_index)
    if attempt_index == 0:
        return source
    from repro.faults.plan import reseed

    return reseed(source, attempt_index)
