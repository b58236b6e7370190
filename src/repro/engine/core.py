"""The persistent multi-tenant engine: one world, resident rank threads,
many concurrent jobs.

An :class:`Engine` pays world construction and thread start-up once: it
owns one pool :class:`~repro.runtime.world.World` (the mailboxes, the
context-id allocator, the cross-job schedule cache) and one resident
thread per pool rank.  Clients submit SPMD functions through
:meth:`Engine.submit` or a :class:`Session` and get back
:class:`~repro.engine.job.JobHandle`\\ s; :func:`repro.runtime.spmd_run`
is a shim over a transient one.

Who does what
-------------
*Where a job is* — pending, running, parked for a retry, terminal — and
which ranks are free or quarantined is the
:class:`~repro.engine.scheduler.Scheduler`'s: plain state, one method
per move, no thread.  This module keeps what needs a thread or a wait:
the lock and condition every move runs under, the rank threads and their
boxes, running a job's ranks and assembling its result, the process
pool, the telemetry hooks, and ``submit`` / ``drain`` / ``shutdown``.
The :class:`~repro.engine.resilience.Supervisor` thread paces the
self-healing steps (:meth:`Engine.admit_due_retries`,
:meth:`~Engine.reap_stuck_jobs`, :meth:`~Engine.probe_quarantined`,
:meth:`~Engine.probe_backend`).  The state table — status, container,
who may move it — is in ``docs/engine.md``, with the isolation model:
each placed job runs over a fresh :class:`~repro.runtime.world.JobWorld`
(clocks, membership, abort flag, base context id), so its results are
**bit-identical** to a standalone ``spmd_run`` wherever in the pool it
landed.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Sequence

from repro.errors import (
    CommunicatorError,
    EngineClosed,
    JobCancelled,
    RankFailStop,
    RuntimeAbort,
    SpmdError,
    SpmdTimeout,
)
from repro.mpi.comm import Communicator
from repro.obs.telemetry_null import NULL_ENGINE_TELEMETRY
from repro.obs.tracer import active_tracer
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import SpmdResult
from repro.runtime.world import World

from repro.engine import resilience
from repro.engine.job import JobHandle, Session, _deadline, _Job, _remaining
from repro.engine.scheduler import Scheduler

__all__ = ["Engine", "Session"]


def _resolve_telemetry(telemetry: Any, nprocs: int) -> Any:
    """``True`` → a fresh :class:`EngineTelemetry`, falsy → the shared
    null object, anything else is the caller's own instance.  The
    telemetry stack is imported only by an engine that turns it on."""
    if telemetry is True:
        from repro.obs.telemetry import EngineTelemetry

        return EngineTelemetry(nprocs)
    return telemetry or NULL_ENGINE_TELEMETRY


def _probe_fn(comm):
    """Supervisor health probe: one self-send/recv round trip through
    the rank's own mailbox — the minimal proof that the rank's worker
    thread, mailbox and clock plumbing are serviceable again."""
    token = ("engine-probe", comm.rank)
    comm.send(token, comm.rank, tag=0)
    echo = comm.recv(source=comm.rank, tag=0)
    return "ok" if echo == token else "bad"


class Engine:
    """A resident rank pool serving many SPMD jobs over one world.

    ``queue_depth`` bounds how many jobs may wait; a full queue blocks
    :meth:`submit` (backpressure) or raises
    :class:`~repro.errors.EngineSaturated` for non-blocking submits.

    ``telemetry`` enables the service-level observability layer
    (:mod:`repro.obs.telemetry`): ``True`` builds a fresh
    :class:`~repro.obs.telemetry.EngineTelemetry`, or pass your own;
    off (default) keeps the submit/schedule hot path allocation-free.

    ``backend`` (``docs/backends.md``): ``"thread"`` (default) folds
    accumulate phases in-process — the bit-identity oracle;
    ``"process"`` offloads them to a
    :class:`~repro.runtime.procworld.ProcPool` of forked rank workers
    over shared-memory rings, byte-identical by contract.

    ``topology`` installs a :class:`repro.runtime.fabric.Topology` on
    the pool's world (flat by default — bit-identical to the plain cost
    model); gang placement follows from it
    (:func:`~repro.engine.scheduler.place_gang`, ``docs/topology.md``).
    """

    def __init__(
        self,
        nprocs: int,
        *,
        cost_model: CostModel | None = None,
        queue_depth: int = 128,
        telemetry: "bool | EngineTelemetry | None" = False,
        backend: str = "thread",
        topology: Any | None = None,
    ):
        if queue_depth < 1:
            raise ValueError(f"queue_depth must be >= 1, got {queue_depth}")
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}"
            )
        self._telemetry = _resolve_telemetry(telemetry, nprocs)
        # The shared world validates nprocs >= 1 before any thread starts.
        self._world = World(nprocs, cost_model, topology=topology)
        self._backend = backend
        if backend == "process":
            # Fork the rank workers *before* the rank threads start:
            # forking a single-threaded parent cannot inherit a lock
            # held mid-acquire by another thread.
            from repro.runtime.procworld import ProcPool

            self._proc_pool = ProcPool(nprocs)
            self._world.proc_pool = self._proc_pool
        else:
            self._proc_pool = None
        self._nprocs = nprocs
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        #: Where every job is, and every count (guarded by ``_lock``).
        self._sched = Scheduler(nprocs, queue_depth, self._world.topology)
        self._joined = False
        self._join_clean = True
        self._telemetry.bind(self)  # reads stats(): the books above exist
        self._boxes: list[queue.SimpleQueue] = [
            queue.SimpleQueue() for _ in range(nprocs)
        ]
        self._threads = [
            threading.Thread(
                target=self._worker, args=(r,),
                name=f"engine-rank-{r}", daemon=True,
            )
            for r in range(nprocs)
        ]
        for t in self._threads:
            t.start()
        self._supervisor = resilience.Supervisor(self).start()

    # -- introspection ------------------------------------------------------

    @property
    def nprocs(self) -> int:
        """Pool size: the maximum ``nprocs`` a job may request."""
        return self._nprocs

    @property
    def world(self) -> World:
        """The shared world (mailboxes, cid allocator, schedule cache)."""
        return self._world

    @property
    def backend(self) -> str:
        """The execution backend: ``"thread"`` or ``"process"``."""
        return self._backend

    @property
    def proc_pool(self):
        """The process backend's worker pool, or None (thread backend)."""
        return self._proc_pool

    @property
    def telemetry(self):
        """The engine's :class:`~repro.obs.telemetry.EngineTelemetry`,
        or the shared null object when telemetry is off (``.enabled``
        distinguishes them)."""
        return self._telemetry

    def set_telemetry(
        self, telemetry: "bool | EngineTelemetry | None"
    ) -> None:
        """Swap the telemetry layer on a live engine (``True`` builds a
        fresh :class:`EngineTelemetry`; ``False``/``None`` disables).

        Meant for quiescent points (after warm-up traffic, say): jobs
        admitted before the swap carry lifecycles stamped by the old
        telemetry but report their remaining transitions to the new one.
        """
        telemetry = _resolve_telemetry(telemetry, self._nprocs)
        with self._lock:
            old, self._telemetry = self._telemetry, telemetry
        old.bind(None)
        telemetry.bind(self)

    def stats(self) -> dict[str, Any]:
        """Scheduler, cache and self-healing counters, one consistent
        snapshot (``effective_capacity``: the pool minus quarantined)."""
        with self._lock:
            return {
                "nprocs": self._nprocs,
                "telemetry_enabled": self._telemetry.enabled,
                **self._sched.stats(),
                "schedule_cache": self._world.schedule_cache.stats(),
                "kernel_cache": self._world.kernel_cache.stats(),
                "backend": self._backend,
                "ipc": (
                    self._proc_pool.ipc_stats()
                    if self._proc_pool is not None else None
                ),
                "topology": self._world.topology.signature,
                "fabric": self._world.topology.stats(),
            }

    def status(self) -> str:
        """Coarse health: ``"ok"``, ``"degraded"`` (schedulable capacity
        below :data:`~repro.engine.resilience.CAPACITY_FLOOR` of the
        pool) or ``"closed"``."""
        with self._lock:
            return self._sched.status()

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        fn: Callable[..., Any],
        *,
        nprocs: int | None = None,
        args: Sequence[Any] = (),
        timeout: float | None = 300.0,
        tracer: Any | None = None,
        fault_plan: Any | None = None,
        label: str | None = None,
        session: str | None = None,
        block: bool = True,
        queue_timeout: float | None = None,
        retry_policy: resilience.RetryPolicy | None = None,
    ) -> JobHandle:
        """Submit ``fn(comm, *args)`` as a job; returns a :class:`JobHandle`.

        Parameters mirror :func:`repro.runtime.spmd_run` (``nprocs``
        defaults to the pool size; it may be smaller, letting several
        jobs run concurrently; the cost model, backend and fabric are
        the pool's).  ``timeout`` is the wall-clock budget
        :meth:`JobHandle.result` enforces.  Admission control:

        * ``block=True`` (default) waits while the pending queue is at
          ``queue_depth``, up to ``queue_timeout`` seconds (None = as
          long as it takes), then raises
          :class:`~repro.errors.EngineSaturated`; ``block=False`` raises
          it immediately on a full queue;
        * a job asking for more ranks than quarantine has left
          schedulable raises :class:`~repro.errors.EngineDegraded` on
          the same terms, or waits for revival (blocking).

        ``fault_plan`` may be a static plan **or** a callable
        ``attempt -> plan`` (attempt 0 = first run,
        :func:`repro.faults.transient_plan`); ``retry_policy`` re-runs
        retryable failures on a fresh
        :class:`~repro.runtime.world.JobWorld` per attempt (an eventual
        success is bit-identical to a fault-free run).

        ``session`` labels the job's telemetry lifecycle with the
        submitting client (set automatically by :meth:`Session.submit`).
        Raises :class:`~repro.errors.EngineClosed` after :meth:`shutdown`.
        """
        nprocs = self._nprocs if nprocs is None else nprocs
        tel = self._telemetry
        # Entry stamp *before* any backpressure wait, so queued-submitted
        # measures the admission stall (allocation-free when disabled).
        t_submit = tel.now() if tel.enabled else 0.0
        if nprocs < 1:
            raise CommunicatorError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs > self._nprocs:
            raise CommunicatorError(
                f"job requests {nprocs} ranks but the engine pool has "
                f"{self._nprocs}"
            )
        if tracer is None:
            # As spmd_run: an installed profiling session captures jobs
            # that bring no tracer (its rank override is the shim's to
            # apply — an engine's pool size is fixed).
            tracer = active_tracer()
        deadline = _deadline(queue_timeout)
        job = _Job(
            fn, args, nprocs,
            timeout=timeout, tracer=tracer, fault_plan=fault_plan,
            label=label, retry_policy=retry_policy, session=session,
        )
        sched = self._sched
        with self._cv:
            while True:
                if sched.closed:
                    raise EngineClosed("engine is shut down")
                refusal = sched.refusal(nprocs)
                if refusal is None:
                    break
                remaining = _remaining(deadline)
                expired = remaining is not None and remaining <= 0.0
                if not block or expired:
                    sched.reject()
                    if tel.enabled:
                        tel.job_rejected(
                            job.label, session, nprocs, t_submit
                        )
                    exc_type, reason = refusal
                    if expired:
                        reason += f" (waited {queue_timeout} s)"
                    raise exc_type(reason)
                self._cv.wait(remaining)
            sched.admit(job, time.perf_counter())
            self._admitted_locked(job, t_submit)
        return JobHandle(job, self)

    def session(self, label: str | None = None) -> "Session":
        """A client handle that tracks its own submissions."""
        return Session(self, label=label)

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is pending, running or awaiting retry;
        False on timeout."""
        deadline = _deadline(timeout)
        with self._cv:
            while not self._sched.idle():
                remaining = _remaining(deadline)
                if remaining is not None and remaining <= 0.0:
                    return False
                self._cv.wait(remaining)
        return True

    def shutdown(
        self, *, drain: bool = True, timeout: float | None = None
    ) -> bool:
        """Close admission and stop the pool.

        ``drain=True`` (graceful) lets queued, running and retrying jobs
        finish first, up to ``timeout`` seconds.  Whatever is still here
        then — everything, with ``drain=False`` — is cancelled: pending
        and retrying jobs at once, running ones by abort (their waiters
        see :class:`~repro.errors.JobCancelled` as soon as the ranks
        unwind), so no handle outlives the engine unsettled.

        The worker threads then get ``timeout`` seconds to join, or
        :data:`~repro.engine.resilience.JOIN_TIMEOUT` (5.0 s) when it
        is None.  Threads that fail to join within the budget are
        logged as a warning and the call returns ``False``.
        Idempotent: repeat calls return the first call's join verdict.
        """
        with self._cv:
            already_joined = self._joined
            self._sched.close()
            self._cv.notify_all()
        if already_joined:
            return self._join_clean
        if drain:
            self.drain(timeout)
        with self._cv:
            unplaced, running = self._sched.sweep()
            for job in unplaced:
                self._finished_locked(job)
        for job in running:
            job.world.abort()
        self._supervisor.stop()
        # Nothing can be placed after the sweep, so the sentinel is the
        # last thing each box ever holds.
        for box in self._boxes:
            box.put(None)
        join_timeout = resilience.JOIN_TIMEOUT if timeout is None else timeout
        join_deadline = time.monotonic() + join_timeout
        stragglers = []
        for t in self._threads:
            t.join(timeout=max(join_deadline - time.monotonic(), 0.0))
            if t.is_alive():
                stragglers.append(t.name)
        clean = not stragglers
        if stragglers:
            import logging

            logging.getLogger("repro.engine").warning(
                "engine shutdown: %d worker thread(s) failed to join "
                "within %.1f s: %s",
                len(stragglers), join_timeout, ", ".join(stragglers),
            )
        if self._proc_pool is not None:
            # After the rank threads: no thread can be mid-offload once
            # they are joined, and a straggler's in-flight request dies
            # with the worker (its MISS fallback path tolerates that).
            self._proc_pool.shutdown(timeout=join_timeout)
        self._joined = True
        self._join_clean = clean
        return clean

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()

    # -- executing the scheduler's moves (engine lock held) -----------------

    def _admitted_locked(self, job: _Job, t_submit: float) -> None:
        """``job`` just joined the pending queue (new, or a retry's next
        attempt): give the attempt its lifecycle and place what fits."""
        tel = self._telemetry
        if tel.enabled:
            job.lifecycle = tel.job_admitted(
                job.job_id, job.label, job.session, job.nprocs,
                job.fault_plan is not None, t_submit, attempt=job.attempt,
            )
        self._dispatch_locked()

    def _dispatch_locked(self) -> None:
        """Start every job the scheduler places: a fresh
        :class:`~repro.runtime.world.JobWorld`, one box item per member."""
        for job in self._sched.place():
            if job.lifecycle is not None:
                self._telemetry.job_assembled(job.lifecycle, job.members)
            job.start(self._world)
            done = self._rank_done
            for g, w in enumerate(job.members):
                self._boxes[w].put((job, g, done))
            self._cv.notify_all()  # queue space freed: wake submitters

    def _finished_locked(self, job: _Job) -> None:
        """``job`` just went terminal: close its lifecycle (a job that
        was parked has none — its failed attempt's closed as "retrying")
        and wake its waiters, drain()ers and submitters."""
        if job.lifecycle is not None:
            self._telemetry.job_done(
                job.lifecycle, job.status, job.virtual_seconds
            )
        job.done_event.set()
        self._cv.notify_all()

    def _cancel_job(self, job: _Job) -> bool:
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

    def _abort_timed_out(
        self, job: _Job, message: str, reaped: bool = False
    ) -> SpmdTimeout:
        """The one timeout-abort: a running job blew its deadline — as
        seen by a client's ``result()`` or by the reaper — so record the
        diagnosis (once; :meth:`Scheduler.settle` fails the job with it)
        and unwind the job's ranks.  Returns the diagnosis."""
        world = job.world
        err = SpmdTimeout(
            message,
            rank_states=None if world is None else world.rank_states(),
        )
        with self._cv:
            first = job.world is world and self._sched.time_out(
                job, err, reaped
            )
        if first:
            world.abort()
        return err

    # -- worker side --------------------------------------------------------

    def _worker(self, world_rank: int) -> None:
        box = self._boxes[world_rank]
        while True:
            item = box.get()
            if item is None:
                return
            self._run_rank(world_rank, *item)

    def _run_rank(self, w: int, job: _Job, g: int, done: Callable) -> None:
        """Run one member rank of one job on its resident pool thread:
        bind the mailbox to the job, call ``fn``, record how it ended,
        then report to ``done`` (:meth:`_rank_done`; a health probe
        brings its own)."""
        world = job.world
        mailbox = self._world.mailboxes[w]
        lc = job.lifecycle
        if lc is not None and lc.t_running is None:
            # First member in stamps "running"; the t_running guard makes
            # this a one-attribute check for every later member.
            self._telemetry.job_running(lc)
        previous = mailbox.bind_job(world.membership, world.abort_event)
        try:
            try:
                comm = Communicator(
                    world.context(w), members=job.members, cid=world.base_cid
                )
                job.returns[g] = job.fn(comm, *job.args)
            except RankFailStop:
                # An *injected* fail-stop is part of the experiment, not
                # a program error: the rank silently dies and survivors
                # carry on (``SpmdResult.failed_ranks`` names it).
                pass
            except RuntimeAbort:
                pass  # unwound because another rank failed
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                with job.lock:
                    job.failures[g] = exc
                    if job.failure_states is None:
                        # Snapshot diagnostics while peers still block.
                        job.failure_states = world.rank_states()
                world.abort()
            finally:
                world.retire_rank(w)
        finally:
            mailbox.bind_job(*previous)
            done(job, w)

    def _rank_done(self, job: _Job, w: int) -> None:
        with self._cv:
            if not self._sched.release(job, w):
                # The freed rank may already complete another job's gang.
                self._dispatch_locked()
                return
        # Last member rank out finalizes, outside the engine lock; the
        # job stays in the running set until its result is assembled, so
        # drain() cannot return with a result still being built.
        leaked, result, err = self._finalize(job)
        dead = job.world.membership.dead_snapshot()
        with self._cv:
            status = self._sched.settle(
                job, result, err, time.perf_counter(), leaked, dead
            )
            if status != "retrying":
                self._finished_locked(job)
            elif job.lifecycle is not None:
                # This attempt is over; the next gets a fresh record.
                self._telemetry.job_retried(job.lifecycle)
                job.lifecycle = None
            self._dispatch_locked()

    def _finalize(
        self, job: _Job
    ) -> tuple[int, SpmdResult | None, BaseException | None]:
        """Sweep the job's leaked envelopes and assemble what its ranks
        end with: ``(leaked, result, error)``, one of the last two
        ``None``.

        Runs outside the engine lock, exactly once per attempt, on the
        worker thread of the job's last-finishing rank; the job's status
        is :meth:`Scheduler.settle`'s to decide, under the lock.
        """
        world = job.world
        wall = time.perf_counter() - job.t0
        clocks = [world.clocks[w].t for w in job.members]
        job.virtual_seconds = max(clocks) if clocks else 0.0
        if world.run_capture is not None:
            # Finalize even on failure so a crashed job still leaves a
            # usable (partial) profile behind.
            job.tracer.finish_run(
                world.run_capture, clocks,
                label=getattr(job.fn, "__name__", None),
            )
        # Messages the job sent but never received (e.g. unwound mid-
        # collective) must not survive it: a persistent world would
        # accumulate them forever.  The sweep is scoped to tags rooted
        # at this job's base cid — concurrent jobs are untouched.
        leaked = 0
        for w in job.members:
            leaked += self._world.mailboxes[w].drain_where(
                lambda src, tag: world.owns_tag(tag)
            )
        if job.failures:
            return leaked, None, SpmdError(
                job.failures, rank_states=job.failure_states
            )
        group_rank = {wr: gr for gr, wr in enumerate(job.members)}
        dead = world.membership.dead_snapshot()
        return leaked, SpmdResult(
            returns=job.returns,
            clocks=clocks,
            traces=[world.traces[w] for w in job.members],
            wall_seconds=wall,
            profile=world.run_capture,
            failed_ranks=frozenset(group_rank[w] for w in dead),
        ), None

    # -- supervision steps (paced by the Supervisor's tick) -----------------

    def admit_due_retries(self) -> None:
        """Re-admit parked jobs whose backoff has elapsed (every parked
        job, once the engine is closing).  The next attempt's plan is
        resolved *first*, outside the lock — the source may be the
        user's ``attempt -> plan`` callable — and only then does the job
        move heap → pending, in one step: it is never in neither."""
        while True:
            with self._cv:
                job = self._sched.due(time.perf_counter())
            if job is None:
                return
            try:
                plan = job.retry_policy.fault_plan_for(
                    job.fault_plan_source, job.attempt
                )
            except Exception as exc:  # noqa: BLE001 - the user's callable
                with self._cv:
                    if self._sched.withdraw(job, "failed", exc):
                        self._finished_locked(job)
                continue
            with self._cv:
                if self._sched.readmit(job, plan, time.perf_counter()):
                    self._admitted_locked(job, self._telemetry.now())

    def reap_stuck_jobs(self) -> None:
        """Fail jobs stuck past their deadline, server-side: even with
        no client blocked in ``result()``, a running job past its
        ``timeout`` (plus ``REAP_GRACE``) is aborted and unwound — an
        abandoned wedged job never holds pool ranks forever — and a
        pending one is failed in place."""
        now = time.perf_counter()
        with self._cv:
            overdue = self._sched.overdue(now)
            for job in self._sched.expire(now):
                self._finished_locked(job)
        for job in overdue:
            self._abort_timed_out(
                job,
                f"job {job.job_id} exceeded its {job.timeout} s deadline; "
                f"reaped by the engine supervisor (aborted and unwound)",
                reaped=True,
            )

    def probe_quarantined(self) -> None:
        """Probe quarantined ranks whose cool-down elapsed; revive the
        ones that pass (back to the free set, and place what now fits)."""
        with self._cv:
            due = self._sched.probe_due(time.perf_counter())
        for w in due:
            ok, swept = self._probe_rank(w)
            with self._cv:
                if self._sched.revive(w, ok, time.perf_counter(), swept):
                    self._dispatch_locked()
                    self._cv.notify_all()  # capacity is back: wake submitters

    def probe_backend(self) -> None:
        """Restart dead process-backend workers (no-op on the thread
        backend): a dead worker costs no correctness — its rank folds
        in-process — but silently costs parallelism."""
        pool = self._proc_pool
        if pool is None or pool.closed:
            return
        for r in pool.dead_workers():
            pool.restart_worker(r)

    def _probe_rank(self, w: int) -> tuple[bool, int]:
        """One health probe of quarantined rank ``w``: sweep the stale
        envelopes out of its mailbox, then run a 1-rank probe job on it
        through the normal worker path.  The probe never enters the
        scheduler: it runs *on* a withheld rank and reports to its own
        ``done``.  Returns ``(passed, envelopes swept)``."""
        if not self._threads[w].is_alive():
            return False, 0
        if self._proc_pool is not None and not self._proc_pool.ping(w):
            # Process backend: a quarantined rank only counts revived
            # when its offload worker answers too (restart first).
            if not self._proc_pool.restart_worker(w):
                return False, 0
        swept = self._world.revive_rank(w)
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
            self._boxes[w].put((job, 0, self._probe_done))
        ok = job.done_event.wait(resilience.PROBE_TIMEOUT)
        return ok and job.error is None and job.returns == ["ok"], swept

    def _probe_done(self, job: _Job, w: int) -> None:
        _, job.result, job.error = self._finalize(job)
        job.done_event.set()
