"""The persistent multi-tenant engine: one world, resident rank threads,
many concurrent jobs.

Where :func:`repro.runtime.spmd_run` historically built a fresh world
and spawned ``nprocs`` threads per call, an :class:`Engine` pays those
costs once: it owns one pool :class:`~repro.runtime.world.World` (the
mailboxes, the context-id allocator, the cross-job schedule cache) and
one resident thread per pool rank.  Clients submit SPMD functions
through :meth:`Engine.submit` or a :class:`Session` and get back
:class:`~repro.engine.job.JobHandle`\\ s.

Scheduling
----------
Jobs are gang-scheduled FIFO: a job asking for ``k <= pool`` ranks waits
until ``k`` pool ranks are free, then runs on the lowest-numbered free
ranks (packed by node and rack on a multi-tier fabric).  Jobs smaller
than the pool run genuinely concurrently.  The queue is strict FIFO (a
large job at the head blocks later small ones), which trades some
utilization for no starvation and a deterministic admission order.

Isolation
---------
Each dispatched job gets a :class:`~repro.runtime.world.JobWorld`: fresh
virtual clocks, traces, membership (failure detector + watchdog), abort
flag, tracer capture and fault injector, plus a world-unique base
context id so two jobs' message tags can never match even while
interleaved on the same mailboxes.  Results are **bit-identical** to a
standalone ``spmd_run`` of the same function: returns, per-rank virtual
times, message counts and makespan — independent of where in the pool
the job landed (costs are rank-uniform and everything user-visible is
labeled with group ranks).

Admission control
-----------------
``queue_depth`` bounds how many jobs may wait; a full queue blocks
:meth:`Engine.submit` (backpressure) or raises
:class:`~repro.errors.EngineSaturated` for non-blocking submits.
:meth:`Engine.drain` waits for quiescence; :meth:`Engine.shutdown`
closes admission and either drains or aborts.

Self-healing
------------
A :class:`~repro.engine.resilience.Supervisor` thread (always on)
closes the loop between job outcomes and pool health: ranks a finished
job reports dead are **quarantined** (the gang scheduler skips them)
and periodically probed back to life; jobs submitted with a
:class:`~repro.engine.resilience.RetryPolicy` that fail with a
retryable error are re-run on a fresh
:class:`~repro.runtime.world.JobWorld` after a deterministic backoff;
jobs stuck past their deadline are reaped server-side.  Admission
control tracks **effective capacity** (pool minus quarantined): a job
that no longer fits raises :class:`~repro.errors.EngineDegraded` (or
waits for revival, when blocking).  See ``docs/engine.md``
("Self-healing").
"""

from __future__ import annotations

import heapq
import queue
import threading
import time
from collections import deque
from typing import Any, Callable, Sequence

from repro.errors import (
    CommunicatorError,
    EngineClosed,
    EngineDegraded,
    EngineSaturated,
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
from repro.engine.job import JobHandle, _Job

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

    ``telemetry`` enables the service-level observability layer
    (:mod:`repro.obs.telemetry`): ``True`` builds a fresh
    :class:`~repro.obs.telemetry.EngineTelemetry`, or pass a
    preconfigured instance; the default (off) keeps the submit/schedule
    hot path allocation-free (the same guarantee as disabled tracing).

    The self-healing layer is always on: every engine runs one
    :class:`~repro.engine.resilience.Supervisor` thread, paced by the
    constants of :mod:`repro.engine.resilience`.

    ``backend`` selects the execution backend (see ``docs/backends.md``):
    ``"thread"`` (default) folds accumulate phases in-process — the
    bit-identity oracle; ``"process"`` offloads them to a
    :class:`~repro.runtime.procworld.ProcPool` of forked rank workers
    over shared-memory rings, byte-identical by contract and enforced
    by the backend identity grid.

    ``topology`` installs a :class:`repro.runtime.fabric.Topology` on
    the pool's world (flat by default — bit-identical to the plain cost
    model).  Gang placement follows from it: gangs are packed into as
    few nodes/racks as the fabric allows, which on the flat fabric is
    the lowest-numbered free ranks.  See ``docs/topology.md``.
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
        self._queue_depth = queue_depth
        self._lock = threading.Lock()
        self._cv = threading.Condition(self._lock)
        self._pending: deque[_Job] = deque()
        self._running: set[_Job] = set()
        self._free: set[int] = set(range(nprocs))
        self._inflight = 0
        self._closed = False
        self._joined = False
        self._next_job_id = 1
        # Counters (read via stats(); written under the engine lock).
        self._n_submitted = 0
        self._n_completed = 0
        self._n_failed = 0
        self._n_cancelled = 0
        self._n_rejected = 0
        self._peak_inflight = 0
        self._leaked_drained = 0
        # Self-healing state (all guarded by the engine lock).
        self._quarantined: set[int] = set()
        self._quarantined_at: dict[int, float] = {}
        self._retry_due: list[tuple[float, int, _Job]] = []  # backoff heap
        self._retry_seq = 0
        self._join_clean = True
        self._n_retried = 0
        self._n_reaped = 0
        self._n_quarantines = 0
        self._n_revivals = 0
        self._revival_swept = 0
        # Locality placement counters (guarded by the engine lock).
        self._gangs_placed = 0
        self._spread_sum = 0
        self._single_node_gangs = 0
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

        Meant for quiescent points — attaching observability to a
        warmed-up engine, or starting a fresh measurement series after
        warm-up traffic (the throughput benchmark does the latter).
        Jobs admitted before the swap carry lifecycles stamped by the
        old telemetry but report their remaining transitions to the new
        one, so swapping with jobs pending or running skews both series.
        """
        telemetry = _resolve_telemetry(telemetry, self._nprocs)
        with self._lock:
            old, self._telemetry = self._telemetry, telemetry
        old.bind(None)
        telemetry.bind(self)

    def stats(self) -> dict[str, Any]:
        """Scheduler, cache and self-healing counters (a consistent
        snapshot).  ``effective_capacity`` is the pool minus quarantined
        ranks — what admission control actually schedules against."""
        with self._lock:
            effective = self._nprocs - len(self._quarantined)
            return {
                "nprocs": self._nprocs,
                "telemetry_enabled": self._telemetry.enabled,
                "pending": len(self._pending),
                "inflight": self._inflight,
                "free_ranks": len(self._free),
                "submitted": self._n_submitted,
                "completed": self._n_completed,
                "failed": self._n_failed,
                "cancelled": self._n_cancelled,
                "rejected": self._n_rejected,
                "peak_inflight": self._peak_inflight,
                "leaked_messages_drained": self._leaked_drained,
                "quarantined_ranks": sorted(self._quarantined),
                "effective_capacity": effective,
                "degraded": self._degraded_locked(),
                "retried": self._n_retried,
                "retry_backlog": len(self._retry_due),
                "reaped": self._n_reaped,
                "quarantines": self._n_quarantines,
                "revivals": self._n_revivals,
                "revival_swept_messages": self._revival_swept,
                "status": self._status_locked(),
                "schedule_cache": self._world.schedule_cache.stats(),
                "kernel_cache": self._world.kernel_cache.stats(),
                "backend": self._backend,
                "ipc": (
                    self._proc_pool.ipc_stats()
                    if self._proc_pool is not None else None
                ),
                "topology": self._world.topology.signature,
                "placement": {
                    "gangs_placed": self._gangs_placed,
                    "mean_gang_spread": (
                        self._spread_sum / self._gangs_placed
                        if self._gangs_placed else 0.0
                    ),
                    "single_node_gangs": self._single_node_gangs,
                },
                "fabric": self._world.topology.stats(),
            }

    def status(self) -> str:
        """Coarse health: ``"ok"``, ``"degraded"`` (schedulable capacity
        below :data:`~repro.engine.resilience.CAPACITY_FLOOR` of the
        pool) or ``"closed"``."""
        with self._lock:
            return self._status_locked()

    def _status_locked(self) -> str:
        """:meth:`status`, for callers already holding the engine lock."""
        if self._closed:
            return "closed"
        return "degraded" if self._degraded_locked() else "ok"

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
          :class:`~repro.errors.EngineSaturated`;
        * ``block=False`` raises :class:`EngineSaturated` immediately on
          a full queue.

        Self-healing extensions:

        * ``fault_plan`` may be a static plan **or** a callable
          ``attempt -> plan`` (attempt 0 = first run) — the chaos-tenant
          contract (:func:`repro.faults.transient_plan`);
        * ``retry_policy`` re-runs retryable failures on a fresh
          :class:`~repro.runtime.world.JobWorld` per attempt (results of
          an eventual success are bit-identical to a fault-free run).

        A job asking for more ranks than quarantine has left schedulable
        raises :class:`~repro.errors.EngineDegraded` (``block=False`` or
        ``queue_timeout`` expired) or waits for revival (blocking).

        ``session`` labels the job's telemetry lifecycle with the
        submitting client (set automatically by :meth:`Session.submit`).
        Raises :class:`~repro.errors.EngineClosed` after :meth:`shutdown`.
        """
        nprocs = self._nprocs if nprocs is None else nprocs
        tel = self._telemetry
        # Entry stamp *before* any backpressure wait, so queued-submitted
        # measures the admission stall.  The disabled branch stays
        # allocation-free: no lifecycle object, no instrument touches.
        t_submit = tel.now() if tel.enabled else 0.0
        if nprocs < 1:
            raise CommunicatorError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs > self._nprocs:
            raise CommunicatorError(
                f"job requests {nprocs} ranks but the engine pool has "
                f"{self._nprocs}"
            )
        if tracer is None:
            # Same convention as spmd_run: an installed profiling session
            # captures jobs that don't bring their own tracer.  (The
            # profile CLI's rank override is applied by the spmd_run
            # shim, not here — an engine's pool size is fixed.)
            tracer = active_tracer()
        deadline = (
            None if queue_timeout is None
            else time.monotonic() + queue_timeout
        )
        # Resolve the first attempt's fault plan up front (the source —
        # possibly a callable — rides along on the job for retries).
        plan0 = fault_plan(0) if callable(fault_plan) else fault_plan
        with self._cv:
            while True:
                if self._closed:
                    raise EngineClosed("engine is shut down")
                effective = self._nprocs - len(self._quarantined)
                degraded_block = nprocs > effective
                if (
                    not degraded_block
                    and len(self._pending) < self._queue_depth
                ):
                    break
                if degraded_block:
                    exc_type: type[EngineSaturated] = EngineDegraded
                    reason = (
                        f"job requests {nprocs} ranks but only {effective} "
                        f"of {self._nprocs} are schedulable "
                        f"({len(self._quarantined)} quarantined); back off "
                        f"until revival"
                    )
                else:
                    exc_type = EngineSaturated
                    reason = (
                        f"pending queue is at its depth limit "
                        f"({self._queue_depth})"
                    )
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                expired = remaining is not None and remaining <= 0.0
                if not block or expired:
                    self._n_rejected += 1
                    if tel.enabled:
                        tel.job_rejected(
                            label if label is not None
                            else getattr(fn, "__name__", None),
                            session, nprocs, t_submit,
                        )
                    if expired:
                        reason += f" (waited {queue_timeout} s)"
                    raise exc_type(reason)
                self._cv.wait(remaining)
            job = _Job(
                self._next_job_id, fn, args, nprocs,
                timeout=timeout,
                tracer=tracer,
                fault_plan=plan0,
                label=label,
            )
            job.fault_plan_source = fault_plan
            job.retry_policy = retry_policy
            job.session = session
            job.admitted_at = time.perf_counter()
            self._next_job_id += 1
            self._n_submitted += 1
            self._pending.append(job)
            if tel.enabled:
                job.lifecycle = tel.job_admitted(
                    job.job_id, job.label, session, nprocs,
                    plan0 is not None, t_submit,
                )
            self._dispatch_locked()
        return JobHandle(job, self)

    def session(self, label: str | None = None) -> "Session":
        """A client handle that tracks its own submissions."""
        return Session(self, label=label)

    # -- lifecycle ----------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is pending, running or awaiting retry;
        False on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            while self._pending or self._inflight or self._retry_due:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0.0:
                    return False
                self._cv.wait(remaining)
        return True

    def shutdown(
        self,
        *,
        drain: bool = True,
        timeout: float | None = None,
    ) -> bool:
        """Close admission and stop the pool.

        ``drain=True`` (graceful) lets queued, running and retrying jobs
        finish first (up to ``timeout`` seconds); ``drain=False``
        cancels every pending/retrying job and aborts every running one
        (their waiters see :class:`~repro.errors.JobCancelled`).

        The worker threads then get ``timeout`` seconds to join, or
        :data:`~repro.engine.resilience.JOIN_TIMEOUT` (5.0 s) when it
        is None.  Threads that fail to join within the budget are
        logged as a warning and the call returns ``False``.
        Idempotent: repeat calls return the first call's join verdict.
        """
        with self._cv:
            already_joined = self._joined
            self._closed = True
            self._cv.notify_all()
        if already_joined:
            return self._join_clean
        if drain:
            self.drain(timeout)
        else:
            with self._cv:
                unplaced = [
                    *self._pending, *(entry[2] for entry in self._retry_due)
                ]
                self._pending.clear()
                self._retry_due.clear()
                running = list(self._running)
                for job in unplaced:
                    self._finish_unplaced_locked(
                        job, "cancelled",
                        JobCancelled(
                            f"job {job.job_id} cancelled by engine shutdown"
                        ),
                    )
            for job in running:
                job.cancelled = True
                job.world.abort()
        self._supervisor.stop()
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

    # -- scheduling internals -----------------------------------------------

    def _assemble_members_locked(self, k: int) -> tuple[int, ...]:
        """Pick ``k`` free ranks for a gang.  Caller holds the engine lock.

        On the flat topology this is exactly the historical policy —
        the lowest-numbered free ranks — so pre-fabric engine behavior
        is untouched.  On a multi-tier fabric the gang is packed to
        minimize the tiers its collectives must cross: the *tightest*
        single node that fits (best-fit keeps big holes open for big
        gangs), else the tightest single rack filled from its fullest
        nodes, else a global fill by descending node free count.
        Members are returned sorted, which keeps each node's ranks a
        contiguous group-rank range — the layout the hierarchical
        collectives exploit.  All choices are deterministic (sorted
        sets, index tie-breaks), and job *results* never depend on
        placement, only virtual times.
        """
        free = sorted(self._free)
        topo = self._world.topology
        if topo.is_flat:
            return tuple(free[:k])
        by_node: dict[int, list[int]] = {}
        for r in free:
            by_node.setdefault(topo.node_of(r), []).append(r)
        # 1) Tightest single node that fits.
        fits = [(len(rs), n) for n, rs in by_node.items() if len(rs) >= k]
        if fits:
            _, node = min(fits)
            return tuple(by_node[node][:k])
        # 2) Tightest single rack, filled from its fullest nodes.
        by_rack: dict[int, list[int]] = {}
        for node, rs in by_node.items():
            by_rack.setdefault(topo.rack_of(rs[0]), []).append(node)
        rack_fits = [
            (sum(len(by_node[n]) for n in nodes), rack)
            for rack, nodes in by_rack.items()
            if sum(len(by_node[n]) for n in nodes) >= k
        ]
        if rack_fits:
            _, rack = min(rack_fits)
            pool_nodes = sorted(
                by_rack[rack], key=lambda n: (-len(by_node[n]), n)
            )
        else:
            # 3) Span racks: fill by descending node free count globally.
            pool_nodes = sorted(
                by_node, key=lambda n: (-len(by_node[n]), n)
            )
        chosen: list[int] = []
        for node in pool_nodes:
            take = min(k - len(chosen), len(by_node[node]))
            chosen.extend(by_node[node][:take])
            if len(chosen) == k:
                break
        return tuple(sorted(chosen))

    def _dispatch_locked(self) -> None:
        """Start every head-of-queue job the free ranks can hold.

        Caller holds the engine lock.  Placement is deterministic (see
        :meth:`_assemble_members_locked`): the lowest-numbered free
        ranks on the flat default, locality-packed on a multi-tier
        fabric — results don't depend on it, but a deterministic
        scheduler is far easier to debug.
        """
        while self._pending:
            job = self._pending[0]
            if job.nprocs > len(self._free):
                break
            self._pending.popleft()
            members = self._assemble_members_locked(job.nprocs)
            self._free.difference_update(members)
            topo = self._world.topology
            if not topo.is_flat:
                spread = topo.nodes_spanned(members)
                self._gangs_placed += 1
                self._spread_sum += spread
                if spread == 1:
                    self._single_node_gangs += 1
            self._inflight += 1
            self._peak_inflight = max(self._peak_inflight, self._inflight)
            if job.lifecycle is not None:
                self._telemetry.job_assembled(job.lifecycle, members)
            self._running.add(job)
            job.start(self._world, members)
            for g, w in enumerate(members):
                self._boxes[w].put((job, g))
            self._cv.notify_all()  # queue space freed: wake submitters

    def _cancel_job(self, job: _Job) -> bool:
        """Cancel ``job`` (see :meth:`JobHandle.cancel`)."""
        with self._cv:
            if job.status == "retrying":
                # Parked in backoff: withdraw it from the retry heap so
                # drain() does not wait on a cancelled job.
                self._retry_due = [
                    entry for entry in self._retry_due
                    if entry[2] is not job
                ]
                heapq.heapify(self._retry_due)
            elif job.status == "pending":
                try:
                    self._pending.remove(job)
                except ValueError:  # pragma: no cover - dispatch race
                    return False
            if job.status in ("retrying", "pending"):
                self._finish_unplaced_locked(
                    job, "cancelled",
                    JobCancelled(f"job {job.job_id} cancelled"),
                )
                return True
            if job.status != "running":
                return False
            job.cancelled = True
        # Abort outside the engine lock: it takes mailbox locks.
        job.world.abort()
        return True

    def _finish_unplaced_locked(
        self, job: _Job, status: str, error: BaseException
    ) -> None:
        """Take a job that holds no ranks — pending, or parked in retry
        backoff — terminal as ``status`` ("cancelled" or "failed").

        The caller holds the engine lock and has already taken the job
        out of the pending deque or the retry heap.  A parked job has no
        lifecycle to close: its failed attempt's went terminal
        ("retrying") in ``_rank_done`` and the next attempt never got one.
        """
        job.status = status
        job.error = error
        if status == "cancelled":
            job.cancelled = True
            self._n_cancelled += 1
        else:
            self._n_failed += 1
        if job.lifecycle is not None:
            self._telemetry.job_done(job.lifecycle, status, 0.0)
        job.done_event.set()
        self._cv.notify_all()

    # -- worker side --------------------------------------------------------

    def _worker(self, world_rank: int) -> None:
        box = self._boxes[world_rank]
        while True:
            item = box.get()
            if item is None:
                return
            job, group_rank = item
            self._run_rank(job, world_rank, group_rank)

    def _run_rank(self, job: _Job, w: int, g: int) -> None:
        """Run one member rank of one job on its resident pool thread:
        bind the mailbox to the job, call ``fn``, record how it ended."""
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
            self._rank_done(job, w)

    def _rank_done(self, job: _Job, w: int) -> None:
        with self._cv:
            if not job.is_probe and w not in self._quarantined:
                # A rank quarantined mid-job (by another job's finalize)
                # stays withheld; probes run *on* quarantined ranks and
                # never touch the free set.
                self._free.add(w)
            job.ranks_left -= 1
            last = job.ranks_left == 0
            if not last:
                # The freed rank may already complete another job's gang.
                self._dispatch_locked()
                self._cv.notify_all()
                return
        # Last member rank out finalizes, outside the engine lock; the
        # job counts as inflight until its result is assembled, so
        # drain() cannot return with a result still being built.
        leaked, result, err = self._finalize(job)
        if job.is_probe:
            # Probes bypass all scheduler accounting and the lock;
            # _probe_rank reads job.status off the done event.
            self._settle(job, result, err)
            return
        with self._cv:
            self._settle(job, result, err)
            self._inflight -= 1
            self._running.discard(job)
            self._leaked_drained += leaked
            self._quarantine_locked(job)
            if job.status == "retrying":
                # The one way back into the queue: the backoff heap,
                # drained by the supervisor's tick.
                self._n_retried += 1
                delay = job.retry_policy.backoff_seconds(
                    job.attempt, job.job_id
                )
                self._retry_seq += 1
                heapq.heappush(
                    self._retry_due,
                    (time.perf_counter() + delay, self._retry_seq, job),
                )
                if job.lifecycle is not None:
                    # This attempt is over; the next gets a fresh record.
                    self._telemetry.job_retried(job.lifecycle)
                    job.lifecycle = None
            else:
                if job.status == "done":
                    self._n_completed += 1
                elif job.status == "cancelled":
                    self._n_cancelled += 1
                else:
                    self._n_failed += 1
                if job.lifecycle is not None:
                    self._telemetry.job_done(
                        job.lifecycle, job.status, job.virtual_seconds
                    )
            self._dispatch_locked()
            self._cv.notify_all()  # wake drain()ers and submitters

    def _finalize(
        self, job: _Job
    ) -> tuple[int, SpmdResult | None, BaseException | None]:
        """Sweep the job's leaked envelopes and assemble what it ends
        with: ``(leaked, result, error)``, one of the last two ``None``.

        Runs outside the engine lock, exactly once per job, on the
        worker thread of the job's last-finishing rank; the job's status
        is :meth:`_settle`'s to decide, under the lock.
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
        with job.lock:
            timed_out = job.timed_out
        if job.failures:
            return leaked, None, SpmdError(
                job.failures, rank_states=job.failure_states
            )
        if timed_out:
            return leaked, None, job.timeout_error
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

    def _settle(
        self, job: _Job, result: SpmdResult | None, err: BaseException | None
    ) -> None:
        """Take ``job`` out of "running": done, cancelled, failed, or
        parked for a retry.  One critical section for every scheduled
        job (the caller holds the engine lock), so a ``cancel()`` lands
        wholly before it — and is read here — or wholly after, on a job
        that is parked or terminal; never in between, counted twice."""
        policy = job.retry_policy
        if job.cancelled:
            job.status = "cancelled"
            job.error = JobCancelled(f"job {job.job_id} cancelled")
        elif err is None:
            job.status, job.result = "done", result
        elif (
            policy is not None
            and not self._closed
            and policy.should_retry(job.attempt, err)
        ):
            # Transient failure under a RetryPolicy: park for backoff
            # instead of going terminal.  The done event stays unset —
            # the client keeps waiting — and _rank_done schedules the
            # re-admission.  On exhausted retries the *last* attempt's
            # error (with its rank_states) is what surfaces.
            job.last_error = err
            job.status = "retrying"
            return
        else:
            job.status, job.error = "failed", err
        job.done_event.set()

    # -- self-healing internals (called by the Supervisor) ------------------

    def _quarantine_locked(self, job: _Job) -> None:
        """Quarantine pool ranks ``job`` reports dead (engine lock held).

        Feeds rank-pool health from job finalize: a world rank that
        fail-stopped inside the job is pulled from the free set and
        withheld from gang assembly until a probe revives it.
        """
        now = time.perf_counter()
        for w in job.world.membership.dead_snapshot():
            if w in self._quarantined:
                continue
            self._quarantined.add(w)
            self._quarantined_at[w] = now
            self._free.discard(w)
            self._n_quarantines += 1

    def _degraded_locked(self) -> bool:
        """Schedulable capacity is below the floor."""
        return (
            self._nprocs - len(self._quarantined)
            < resilience.CAPACITY_FLOOR * self._nprocs
        )

    def _admit_due_retries(self) -> None:
        """Re-admit retry-parked jobs whose backoff has elapsed (every
        parked job, once the engine is closing — a graceful drain lets
        retries finish rather than stranding their waiters)."""
        while True:
            with self._cv:
                if not self._retry_due:
                    return
                due_at, _, job = self._retry_due[0]
                if due_at > time.perf_counter() and not self._closed:
                    return
                heapq.heappop(self._retry_due)
                if job.done_event.is_set():
                    # Cancelled while parked; heap shrank: wake drain().
                    self._cv.notify_all()
                    continue
            self._readmit_retry(job)

    def _readmit_retry(self, job: _Job) -> None:
        """Queue the next attempt of a retry-parked job."""
        job.attempt += 1
        plan = job.retry_policy.fault_plan_for(
            job.fault_plan_source, job.attempt - 1
        )
        job.fault_plan = plan
        job.world = None
        job.members = ()
        job.timed_out = False
        job.timeout_error = None
        job.admitted_at = time.perf_counter()
        job.status = "pending"
        tel = self._telemetry
        with self._cv:
            if job.done_event.is_set():  # pragma: no cover - cancel race
                return
            self._pending.append(job)
            if tel.enabled:
                job.lifecycle = tel.job_admitted(
                    job.job_id, job.label, job.session, job.nprocs,
                    plan is not None, tel.now(), attempt=job.attempt,
                )
            self._dispatch_locked()
            self._cv.notify_all()

    def _reap_stuck_jobs(self) -> None:
        """Fail jobs stuck past their deadline, server-side.

        Escalation above the per-collective hang watchdog and the
        *client-side* ``JobHandle.result`` timeout: even with no client
        blocked in ``result()``, a job that exceeds its submit-time
        ``timeout`` (plus :data:`~repro.engine.resilience.REAP_GRACE`)
        is aborted and unwound, so an abandoned wedged job can never
        hold pool ranks forever.  Pending jobs past their deadline are
        failed in place.
        """
        grace = resilience.REAP_GRACE
        now = time.perf_counter()
        to_abort: list[_Job] = []
        with self._cv:
            for job in self._running:
                if job.is_probe or job.timeout is None or job.cancelled:
                    continue
                if now - job.t0 <= job.timeout + grace:
                    continue
                with job.lock:
                    if job.timed_out:
                        continue
                to_abort.append(job)
            expired = [
                job for job in self._pending
                if job.timeout is not None
                and now - job.admitted_at > job.timeout + grace
            ]
            for job in expired:
                self._pending.remove(job)
                self._n_reaped += 1
                self._finish_unplaced_locked(
                    job, "failed",
                    SpmdTimeout(
                        f"job {job.job_id} spent over {job.timeout} s "
                        f"queued without being dispatched (pool saturated "
                        f"or degraded); reaped by the engine supervisor"
                    ),
                )
        for job in to_abort:
            states = job.world.rank_states()
            err = SpmdTimeout(
                f"job {job.job_id} exceeded its {job.timeout} s deadline; "
                f"reaped by the engine supervisor (aborted and unwound)",
                rank_states=states,
            )
            with job.lock:
                if job.timed_out:  # pragma: no cover - client-side race
                    continue
                job.timed_out = True
                job.timeout_error = err
            with self._cv:
                self._n_reaped += 1
            # Abort outside the engine lock: it takes mailbox locks.
            job.world.abort()

    def _probe_quarantined(self) -> None:
        """Probe quarantined ranks whose cool-down elapsed; revive the
        ones that pass (return them to the free set and re-dispatch)."""
        now = time.perf_counter()
        with self._cv:
            if self._closed:
                return
            due = [
                w for w, t in self._quarantined_at.items()
                if now - t >= resilience.PROBE_AFTER
            ]
        for w in due:
            ok = self._probe_rank(w)
            with self._cv:
                if self._closed or w not in self._quarantined:
                    continue
                if ok:
                    self._quarantined.discard(w)
                    del self._quarantined_at[w]
                    self._free.add(w)
                    self._n_revivals += 1
                    self._dispatch_locked()
                    self._cv.notify_all()
                else:  # pragma: no cover - probe failure is exceptional
                    self._quarantined_at[w] = time.perf_counter()

    def _probe_backend(self) -> None:
        """Supervisor step: restart dead process-backend workers.

        A dead worker is never a correctness problem — its rank's
        accumulates fall back to the in-process fold — but it silently
        costs parallelism, so the supervisor re-forks it.  No-op on the
        thread backend.
        """
        pool = self._proc_pool
        if pool is None or pool.closed:
            return
        for r in pool.dead_workers():
            pool.restart_worker(r)

    def _probe_rank(self, w: int) -> bool:
        """One health probe of quarantined rank ``w``: sweep the stale
        envelopes out of its mailbox, then run a 1-rank probe job on it
        through the normal worker path."""
        if not self._threads[w].is_alive():
            return False
        if self._proc_pool is not None and not self._proc_pool.ping(w):
            # Process backend: a quarantined rank only counts revived
            # when its offload worker answers too (restart first).
            if not self._proc_pool.restart_worker(w):
                return False
        swept = self._world.revive_rank(w)
        with self._cv:
            if self._closed:
                return False
            self._revival_swept += swept
            probe_id = self._next_job_id
            self._next_job_id += 1
        job = _Job(
            probe_id, _probe_fn, (), 1,
            timeout=None, tracer=None, fault_plan=None,
            label=f"probe-rank-{w}",
        )
        job.is_probe = True
        job.start(self._world, (w,))
        self._boxes[w].put((job, 0))
        if not job.done_event.wait(resilience.PROBE_TIMEOUT):
            return False
        return job.status == "done" and job.returns == ["ok"]


class Session:
    """A client-facing handle over an :class:`Engine`.

    Sessions add per-client bookkeeping on top of the engine's global
    scheduling: each tracks the handles it submitted, so a client can
    drain *its own* jobs without waiting on anyone else's.  Many
    sessions (threads) may share one engine.
    """

    def __init__(self, engine: Engine, label: str | None = None):
        self._engine = engine
        self.label = label
        self._lock = threading.Lock()
        self._handles: list[JobHandle] = []

    @property
    def engine(self) -> Engine:
        return self._engine

    @property
    def handles(self) -> list[JobHandle]:
        """Handles of every job this session submitted (snapshot)."""
        with self._lock:
            return list(self._handles)

    def submit(self, fn: Callable[..., Any], **kwargs: Any) -> JobHandle:
        """Submit a job (same keywords as :meth:`Engine.submit`).  The
        session's label rides along so telemetry lifecycles attribute
        the job to this client."""
        kwargs.setdefault("session", self.label)
        handle = self._engine.submit(fn, **kwargs)
        with self._lock:
            self._handles.append(handle)
        return handle

    def results(self, timeout: float | None = None) -> list:
        """The :class:`SpmdResult` of every submitted job, in submission
        order (raises on the first failed job, like the handle would)."""
        return [h.result(timeout) for h in self.handles]

    def drain(self, timeout: float | None = None) -> bool:
        """Wait until every job this session submitted has finished."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for handle in self.handles:
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0.0:
                return False
            if not handle.wait(remaining):
                return False
        return True

    def close(self, timeout: float | None = None) -> None:
        """Drain the session's jobs (the engine itself stays up)."""
        self.drain(timeout)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
