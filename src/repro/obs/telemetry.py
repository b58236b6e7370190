"""Service-level engine telemetry: job lifecycle, scheduler state, tails.

:mod:`repro.obs` (tracing) answers *where did the virtual time of one
run go*; this module answers the operator's questions about the
persistent :class:`~repro.engine.Engine`: how deep is the queue, how
long do jobs wait, how busy is each pool rank, what do p50/p99 look
like under load.  Those signals live on the **wall clock** — queue wait
and gang-assembly stalls happen in real time, outside any job's virtual
clock — so an :class:`EngineTelemetry` stamps both: wall-clock
lifecycle transitions per job, plus the job's simulated makespan once
it finishes.

Lifecycle
---------
Every job walks ``submitted → queued → gang-assembled → running →
{completed | failed | cancelled}``; a submit rejected by admission
control records a terminal ``saturated`` lifecycle instead.  Each
transition is stamped on the telemetry's monotonic wall clock
(:class:`JobLifecycle`), labeled by session, job id, ``nprocs`` and
fault-plan presence, and the derived intervals feed three latency
histograms with streaming p50/p95/p99:

* ``engine.job.queue_wait_seconds`` — admission to gang assembly;
* ``engine.job.exec_seconds`` — gang assembly to completion;
* ``engine.job.e2e_seconds`` — submit entry to completion.

One set of books
----------------
Counts and levels are the engine's; telemetry measures time.  The six
hooks (``job_admitted``, ``job_rejected``, ``job_assembled``,
``job_running``, ``job_done``, ``job_retried``) stamp a lifecycle,
observe a latency histogram and open or close per-rank busy intervals —
nothing else.  Every exported counter and gauge is copied out of
:meth:`Engine.stats() <repro.engine.Engine.stats>` when a snapshot is
taken, through the one :data:`STATS_METRICS` table (counters as totals
since the telemetry was bound), so the two can never disagree.

Cost discipline
---------------
Telemetry is designed to be left on in a service: the enabled path adds
a few clock reads, histogram observes and one small record per job —
**per job**, never per message or per collective round — and the hook
work of one job is held to ≤5% of the job
(``tests/test_telemetry.py::TestHookBudget``).  The disabled
path is the shared :data:`NULL_ENGINE_TELEMETRY`, whose ``enabled``
attribute gates every hook call site, so a telemetry-off engine
allocates no telemetry objects at all on the submit/schedule hot path
(poison-tested like the disabled tracer).

Exports
-------
* :meth:`EngineTelemetry.snapshot` — one JSON-serializable frame:
  gauges, counters, histogram summaries with quantiles, per-rank
  utilization, schedule-cache stats, recent jobs.
* :class:`SnapshotRing` — a periodic snapshot thread writing frames
  into a bounded ring buffer, dumpable as JSONL.
* :meth:`EngineTelemetry.jsonl_records` — per-job lifecycle records as
  JSONL dicts.
* :func:`repro.obs.promexport.render_prometheus` — Prometheus text
  exposition (served by ``python -m repro serve --metrics-port``).
* :func:`repro.analysis.engine_session_to_chrome_trace` — the per-rank
  busy timeline as one Perfetto timeline for the whole engine session.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Iterator

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry_null import NULL_ENGINE_TELEMETRY

__all__ = [
    "JobLifecycle",
    "EngineTelemetry",
    "SnapshotRing",
    "NULL_ENGINE_TELEMETRY",
    "LIFECYCLE_STATES",
    "STATS_METRICS",
]

#: Totals, exported as counters: ``{metric name: Engine.stats() key}``.
_COUNTERS = {
    "engine.jobs.submitted": "submitted",
    "engine.jobs.completed": "completed",
    "engine.jobs.failed": "failed",
    "engine.jobs.cancelled": "cancelled",
    "engine.jobs.rejected": "rejected",
    "engine.jobs.retried": "retried",
    "engine.jobs.reaped": "reaped",
    "engine.jobs.leaked_messages": "leaked_messages_drained",
    "engine.ranks.quarantines": "quarantines",
    "engine.ranks.revivals": "revivals",
}

#: Every count and level telemetry exports, read from ``Engine.stats()``
#: at snapshot time.  A dotted key descends into a nested dict, and a
#: family the engine does not have (``ipc`` on the thread backend) is
#: skipped; a list exports its length, a flag 0/1, and a dict (the
#: fabric's traffic counters, empty on the flat topology) one gauge per
#: item under the metric name.  Everything not in ``_COUNTERS`` is a gauge.
STATS_METRICS = {
    **_COUNTERS,
    "engine.queue.depth": "pending",
    "engine.jobs.inflight": "inflight",
    "engine.ranks.free": "free_ranks",
    "engine.ranks.quarantined": "quarantined_ranks",
    "engine.capacity.effective": "effective_capacity",
    "engine.capacity.degraded": "degraded",
    "engine.schedule_cache.hits": "schedule_cache.hits",
    "engine.schedule_cache.misses": "schedule_cache.misses",
    "engine.schedule_cache.hit_rate": "schedule_cache.hit_rate",
    "engine.kernel_cache.hits": "kernel_cache.hits",
    "engine.kernel_cache.misses": "kernel_cache.misses",
    "engine.kernel_cache.hit_rate": "kernel_cache.hit_rate",
    "backend.ipc.frames": "ipc.frames",
    "backend.ipc.bytes": "ipc.bytes",
    "backend.ipc.shm_hits": "ipc.shm_hits",
    "backend.ipc.pickle_fallbacks": "ipc.pickle_fallbacks",
    "engine.placement.gangs": "placement.gangs_placed",
    "engine.placement.gang_spread": "placement.mean_gang_spread",
    "engine.placement.single_node_gangs": "placement.single_node_gangs",
    "fabric.congestion": "fabric",
}


def _stat(stats: Any, key: str) -> Any:
    """What ``stats[key]`` exports (see :data:`STATS_METRICS`); None
    when a family on the way down a dotted ``key`` is absent."""
    for part in key.split("."):
        if stats is None:
            return None
        stats = stats[part]
    if isinstance(stats, list):
        return len(stats)
    return int(stats) if isinstance(stats, bool) else stats


#: Lifecycle states in transition order; the last four are terminal.
#: "retrying" is the self-healing loop: a failed attempt re-enters
#: "queued" (with a bumped ``attempt``) after its backoff elapses.
LIFECYCLE_STATES = (
    "submitted", "queued", "gang-assembled", "running", "retrying",
    "completed", "failed", "cancelled", "saturated",
)


class JobLifecycle:
    """Wall-clock lifecycle stamps of one engine job.

    Times are seconds on the telemetry's monotonic clock (zero at
    telemetry construction); unreached transitions are ``None``.  The
    final ``virtual_seconds`` is the job's simulated makespan — the
    bridge between service-level wall time and the model's virtual time.
    """

    __slots__ = (
        "job_id", "label", "session", "nprocs", "has_fault_plan",
        "t_submitted", "t_queued", "t_assembled", "t_running", "t_done",
        "state", "virtual_seconds", "attempt", "members",
    )

    def __init__(
        self,
        job_id: int,
        label: str | None,
        session: str | None,
        nprocs: int,
        has_fault_plan: bool,
        t_submitted: float,
        attempt: int = 1,
    ):
        self.job_id = job_id
        self.label = label
        self.session = session
        self.nprocs = nprocs
        self.has_fault_plan = has_fault_plan
        self.t_submitted = t_submitted
        self.attempt = attempt
        self.t_queued: float | None = None
        self.t_assembled: float | None = None
        self.t_running: float | None = None
        self.t_done: float | None = None
        self.state = "submitted"
        self.virtual_seconds: float | None = None
        self.members: tuple[int, ...] = ()  # pool ranks, once assembled

    # -- derived intervals --------------------------------------------------

    @property
    def queue_wait(self) -> float | None:
        """Seconds from admission to gang assembly (None until assembled)."""
        if self.t_queued is None or self.t_assembled is None:
            return None
        return self.t_assembled - self.t_queued

    @property
    def exec_seconds(self) -> float | None:
        """Seconds from gang assembly to completion."""
        if self.t_assembled is None or self.t_done is None:
            return None
        return self.t_done - self.t_assembled

    @property
    def e2e_seconds(self) -> float | None:
        """Seconds from submit entry to completion (incl. admission wait)."""
        if self.t_done is None:
            return None
        return self.t_done - self.t_submitted

    def to_record(self) -> dict[str, Any]:
        """One JSONL-ready dict (``type: "job"``)."""
        return {
            "type": "job",
            "job_id": self.job_id,
            "label": self.label,
            "session": self.session,
            "nprocs": self.nprocs,
            "fault_plan": self.has_fault_plan,
            "state": self.state,
            "attempt": self.attempt,
            "t_submitted": self.t_submitted,
            "t_queued": self.t_queued,
            "t_assembled": self.t_assembled,
            "t_running": self.t_running,
            "t_done": self.t_done,
            "queue_wait_s": self.queue_wait,
            "exec_s": self.exec_seconds,
            "e2e_s": self.e2e_seconds,
            "virtual_s": self.virtual_seconds,
        }


class EngineTelemetry:
    """Always-on observability for one :class:`~repro.engine.Engine`.

    The engine calls the six ``job_*`` hooks from its submit, dispatch
    and completion paths (each stamps a lifecycle and at most observes
    a histogram and opens or closes busy intervals); everything else —
    snapshots, Prometheus rendering, the dashboard — reads from here
    without touching the engine hot path.
    """

    enabled = True

    def __init__(
        self,
        nprocs: int,
        *,
        history: int = 256,
        max_intervals: int = 4096,
    ):
        self.nprocs = nprocs
        self.registry = MetricsRegistry()
        self._t0 = time.perf_counter()
        self._epoch = time.time()
        self._lock = threading.Lock()
        self._history: deque[JobLifecycle] = deque(maxlen=history)
        #: Closed per-rank busy intervals (rank, t0, t1, job_id, label),
        #: bounded so a long-lived engine cannot grow without limit.
        self._intervals: deque[tuple[int, float, float, int, str | None]] = (
            deque(maxlen=max_intervals)
        )
        # Per-rank state is only mutated from job_assembled/job_done/
        # job_retried, all called with the engine lock held, so no
        # telemetry lock guards it; readers (utilization, snapshots)
        # take lock-free copies and tolerate a fraction of a job of
        # skew, which is harmless in monitoring data.
        self._busy = [0.0] * nprocs  # cumulative busy seconds per rank
        self._open: list[float | None] = [None] * nprocs
        self._jobs_per_rank = [0] * nprocs
        self._closed_per_rank = [0] * nprocs
        self._engine: Any = None
        self._base: dict[str, Any] = {}
        reg = self.registry
        # The histograms are created once, here, so the hooks below
        # touch only pre-resolved references (no name lookups per job).
        self._h_queue_wait = reg.histogram("engine.job.queue_wait_seconds")
        self._h_exec = reg.histogram("engine.job.exec_seconds")
        self._h_e2e = reg.histogram("engine.job.e2e_seconds")
        self._h_virtual = reg.histogram("engine.job.virtual_seconds")

    def bind(self, engine: Any) -> None:
        """Attach the owning engine, whose ``stats()`` every snapshot
        reads.  Counters report totals since this call, so a telemetry
        swapped onto a live engine starts a fresh series; ``None``
        detaches, and the series ends at the engine's totals of now."""
        if engine is None:
            self.snapshot()
        else:
            self._base = engine.stats()
        self._engine = engine

    def now(self) -> float:
        """Seconds on the telemetry's monotonic wall clock."""
        return time.perf_counter() - self._t0

    # -- engine hooks (hot path; stamps, histograms, busy intervals) -------

    def job_admitted(
        self,
        job_id: int,
        label: str | None,
        session: str | None,
        nprocs: int,
        has_fault_plan: bool,
        t_submitted: float,
        attempt: int = 1,
    ) -> JobLifecycle:
        """A job entered the pending queue; returns its lifecycle record.

        ``t_submitted`` is the hook-captured entry time into ``submit``
        — before any backpressure wait — so ``t_queued - t_submitted``
        is the admission stall.  A retried attempt re-enters here with
        ``attempt > 1`` (a fresh lifecycle per attempt; the failed
        attempt's record stays in the history with state "retrying").
        """
        lc = JobLifecycle(
            job_id, label, session, nprocs, has_fault_plan, t_submitted,
            attempt=attempt,
        )
        lc.t_queued = self.now()
        lc.state = "queued"
        return lc

    def job_rejected(
        self,
        label: str | None,
        session: str | None,
        nprocs: int,
        t_submitted: float,
    ) -> None:
        """A submit was refused by admission control (``EngineSaturated``)."""
        lc = JobLifecycle(-1, label, session, nprocs, False, t_submitted)
        lc.t_done = self.now()
        lc.state = "saturated"
        with self._lock:
            self._history.append(lc)

    def job_assembled(
        self, lc: JobLifecycle, members: tuple[int, ...]
    ) -> None:
        """The job's gang was assembled and dispatched onto ``members``.

        Called (like :meth:`job_done`) with the engine lock held, which
        serializes the per-rank open/close bookkeeping without any lock
        of telemetry's own.
        """
        t = self.now()
        lc.t_assembled = t
        lc.state = "gang-assembled"
        lc.members = members
        for r in members:
            self._open[r] = t
            self._jobs_per_rank[r] += 1
        self._h_queue_wait.observe(max(t - (lc.t_queued or t), 0.0))

    def job_running(self, lc: JobLifecycle) -> None:
        """The first member rank entered the job's function.

        The engine calls this once per job, guarded by ``lc.t_running is
        None`` at the call site — the busy timeline is stamped at gang
        granularity (see :meth:`job_done`), so member ranks pay no
        per-rank telemetry on their own execution path.
        """
        if lc.t_running is None:
            lc.t_running = self.now()
            lc.state = "running"

    def _close(self, lc: JobLifecycle, state: str) -> float:
        """Take ``lc`` terminal in ``state`` now: close the busy
        interval of every member rank and file the record in the
        history.  Returns the stamp.

        Intervals are closed at gang granularity — one ``(rank,
        t_start, t_done)`` slice per member, where ``t_start`` is the
        first member's entry (members of a gang start within
        microseconds of each other, so per-member begin/end stamps would
        buy precision the monitoring data cannot use at 16 extra hook
        calls per job).
        """
        t = self.now()
        lc.t_done = t
        lc.state = state
        t_start = lc.t_running if lc.t_running is not None else lc.t_assembled
        for r in lc.members:  # empty unless the gang was assembled
            self._open[r] = None
            self._busy[r] += t - t_start
            self._closed_per_rank[r] += 1
            self._intervals.append((r, t_start, t, lc.job_id, lc.label))
        with self._lock:
            self._history.append(lc)
        return t

    def job_done(
        self, lc: JobLifecycle, status: str, virtual_seconds: float
    ) -> None:
        """Terminal transition, with the engine lock held: ``status`` is
        the job's final engine state (``done``/``failed``/``cancelled``)."""
        lc.virtual_seconds = virtual_seconds
        t = self._close(lc, "completed" if status == "done" else status)
        if lc.t_assembled is not None:
            self._h_exec.observe(max(t - lc.t_assembled, 0.0))
            self._h_virtual.observe(max(virtual_seconds, 0.0))
        self._h_e2e.observe(max(t - lc.t_submitted, 0.0))

    def job_retried(self, lc: JobLifecycle) -> None:
        """This attempt failed and the job is parked for backoff.

        Called (like :meth:`job_done`) with the engine lock held.  The
        failed attempt's lifecycle goes terminal here with state
        "retrying" and the job lets go of it; the re-admitted attempt
        gets a *fresh* lifecycle from :meth:`job_admitted`, so
        per-attempt histories stay intact and the latency histograms
        measure only attempts that ran to a verdict.
        """
        self._close(lc, "retrying")

    # -- cold-path reads ----------------------------------------------------

    def utilization(self, now: float | None = None) -> list[float]:
        """Per-rank busy fraction since telemetry start, counting any
        interval still open (a rank mid-job is busy, not idle)."""
        t = self.now() if now is None else now
        if t <= 0.0:
            return [0.0] * self.nprocs
        busy = list(self._busy)
        for r, t0 in enumerate(list(self._open)):
            if t0 is not None:
                busy[r] += t - t0
        return [min(max(b, 0.0) / t, 1.0) for b in busy]

    def intervals(self) -> list[tuple[int, float, float, int, str | None]]:
        """Closed per-rank busy intervals ``(rank, t0, t1, job_id,
        label)``, oldest first (bounded; see ``interval_drops``)."""
        return list(self._intervals)

    @property
    def interval_drops(self) -> int:
        """Busy intervals evicted from the bounded ring so far."""
        return max(0, sum(self._closed_per_rank) - len(self._intervals))

    def recent_jobs(self, n: int = 16) -> list[JobLifecycle]:
        """The last ``n`` terminal job lifecycles, oldest first."""
        with self._lock:
            items = list(self._history)
        return items[-n:]

    def snapshot(self) -> dict[str, Any]:
        """One JSON-serializable telemetry frame.

        Every count and level is copied here from the bound engine's
        ``stats()`` into the registry (:data:`STATS_METRICS`) — a
        snapshot-time sync, deliberately not an increment per job or per
        ``choose()``, so the engine keeps one set of books and the
        caches' lock-free read paths stay untouched.
        """
        t = self.now()
        util = self.utilization(t)
        reg = self.registry
        reg.gauge("engine.ranks.busy_fraction").set(
            sum(util) / len(util) if util else 0.0
        )
        engine_stats: dict[str, Any] | None = None
        if self._engine is not None:
            engine_stats = self._engine.stats()
            for name, key in STATS_METRICS.items():
                value = _stat(engine_stats, key)
                if value is None:
                    continue
                if name in _COUNTERS:
                    reg.counter(name).value = value - _stat(self._base, key)
                elif isinstance(value, dict):
                    for item, level in value.items():
                        reg.gauge(f"{name}.{item}").set(level)
                else:
                    reg.gauge(name).set(value)
        frame: dict[str, Any] = {
            "type": "snapshot",
            "ts": self._epoch + t,
            "uptime_s": t,
            "nprocs": self.nprocs,
            "utilization": util,
            "jobs_per_rank": list(self._jobs_per_rank),
            "interval_drops": self.interval_drops,
            "metrics": self.registry.snapshot(),
        }
        if engine_stats is not None:
            frame["engine"] = engine_stats
        return frame

    def latency_summary(self) -> dict[str, Any]:
        """Queue-wait / exec / end-to-end histogram summaries (with
        p50/p95/p99) keyed by short names — the BENCH-file shape."""
        return {
            "queue_wait_s": self._h_queue_wait.summary(),
            "exec_s": self._h_exec.summary(),
            "e2e_s": self._h_e2e.summary(),
            "virtual_s": self._h_virtual.summary(),
        }

    def jsonl_records(self) -> Iterator[dict[str, Any]]:
        """Per-job lifecycle records (``type: "job"``), oldest first,
        followed by one final ``type: "metrics"`` registry snapshot."""
        for lc in self.recent_jobs(len(self._history)):
            yield lc.to_record()
        yield {"type": "metrics", **self.snapshot()["metrics"]}

    def dumps_jsonl(self) -> str:
        """The lifecycle records as newline-delimited JSON."""
        import json

        return "\n".join(
            json.dumps(rec, allow_nan=False) for rec in self.jsonl_records()
        ) + "\n"


class SnapshotRing:
    """Periodic JSONL snapshot ring buffer over one telemetry.

    A daemon thread calls :meth:`EngineTelemetry.snapshot` every
    ``interval`` seconds and keeps the last ``capacity`` frames; the
    ring is bounded, so leaving it running for days costs a fixed
    amount of memory.  ``write()`` dumps the frames plus the per-job
    lifecycle records as one JSONL file.
    """

    def __init__(
        self,
        telemetry: EngineTelemetry,
        *,
        interval: float = 1.0,
        capacity: int = 600,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.telemetry = telemetry
        self.interval = interval
        self._frames: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._lock = threading.Lock()

    def start(self) -> "SnapshotRing":
        """Start the sampler thread (idempotent); returns self."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="telemetry-snapshots", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def sample(self) -> dict[str, Any]:
        """Take one snapshot now (also usable without the thread)."""
        frame = self.telemetry.snapshot()
        with self._lock:
            self._frames.append(frame)
        return frame

    def stop(self) -> None:
        """Stop the sampler thread; frames already taken are kept."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def frames(self) -> list[dict[str, Any]]:
        """The buffered snapshot frames, oldest first."""
        with self._lock:
            return list(self._frames)

    def write(self, path: str) -> int:
        """Dump frames + per-job lifecycle records as JSONL; returns the
        number of lines written."""
        import json

        records = [*self.frames(), *self.telemetry.jsonl_records()]
        with open(path, "w") as f:
            for rec in records:
                f.write(json.dumps(rec, allow_nan=False) + "\n")
        return len(records)

    def __enter__(self) -> "SnapshotRing":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
