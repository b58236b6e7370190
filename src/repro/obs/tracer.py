"""Phase-level span tracing on the virtual clock.

A **span** is a named interval of one rank's virtual time — a
``global_reduce`` call, its ``accumulate``/``combine``/``generate``
phases, a collective underneath the combine.  Spans nest (each rank
keeps a stack), carry the operator name and byte/element counts, and are
timestamped from the rank's :class:`~repro.runtime.clock.VirtualClock`,
so a profile describes *simulated* time exactly.

Objects
-------
* :class:`Tracer` — one per profiling session; owns one
  :class:`RunCapture` per ``spmd_run``.
* :class:`RankTracer` — one per rank per run; the handle hot paths use
  (``with comm.tracer.span(...)``).  Single-threaded by construction
  (each rank is one thread), so recording takes no locks.
* :data:`NULL_TRACER` — the disabled stand-in (defined, with
  :data:`NULL_SPAN` and the active-profile slot, in
  :mod:`repro.obs.tracer_null`, so an untraced job never loads this
  module).  Its ``span()`` returns a
  shared no-op context manager and its hooks do nothing, which is what
  makes tracing zero-overhead when off: the hot paths contain only an
  attribute load, a call, and an ``enabled`` check.

A span carries, besides its clock interval, the **notes** its code
path attaches where it decides something (:meth:`RankTracer.note`): the
schedule and radix a collective resolved to, the kernel route of a fold,
the width of a shared sweep or a fused wave.  Counts are read off these
notes (:func:`repro.obs.export.profile_counts`), so the span profile is
the only record a traced run writes.

The module also maintains the **active profile**: a process-wide
``(tracer, ranks_override)`` installed by :func:`profiling`, which
``spmd_run`` consults when no tracer is passed explicitly.  This is how
``python -m repro profile`` traces example scripts it does not control.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Hashable, Iterator

from repro.obs import tracer_null as _null
from repro.obs.tracer_null import (  # noqa: F401  (re-exported)
    NULL_SPAN,
    NULL_TRACER,
    active_profile,
    active_tracer,
)
from repro.util.record import Record

__all__ = [
    "Span",
    "SendEdge",
    "RecvEdge",
    "RankTracer",
    "RunCapture",
    "Tracer",
    "NULL_SPAN",
    "NULL_TRACER",
    "profiling",
    "active_tracer",
    "active_profile",
]

#: Canonical phase names used by the global-view drivers.
PHASES = ("accumulate", "combine", "generate")


class Span(Record):
    """One named interval of one rank's virtual timeline.

    ``phase`` is ``"accumulate"``, ``"combine"``, ``"generate"`` ... or
    None; ``op`` the operator name when the span belongs to one;
    ``notes`` the facts noted by the code that ran under the span (see
    :meth:`RankTracer.note`), ``None`` when nothing was noted."""

    __slots__ = (
        "span_id", "parent_id", "name", "rank", "t_start", "t_end", "phase",
        "op", "nbytes", "elements", "depth", "notes",
    )

    def __init__(
        self,
        span_id: str,
        parent_id: str | None,
        name: str,
        rank: int,
        t_start: float,
        t_end: float = 0.0,
        phase: str | None = None,
        op: str | None = None,
        nbytes: int = 0,
        elements: int = 0,
        depth: int = 0,
        notes: dict[str, Any] | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.rank = rank
        self.t_start = t_start
        self.t_end = t_end
        self.phase = phase
        self.op = op
        self.nbytes = nbytes
        self.elements = elements
        self.depth = depth
        self.notes = notes

    @property
    def duration(self) -> float:
        """Virtual seconds covered by the span."""
        return self.t_end - self.t_start

    def add(self, nbytes: int = 0, elements: int = 0) -> None:
        """Accumulate byte/element counts onto the span."""
        self.nbytes += nbytes
        self.elements += elements


class SendEdge(Record, frozen=True):
    """One message injection, as seen by the sender: ``t_send`` is the
    sender's clock after paying the send overhead, ``available_at`` when
    the message becomes receivable."""

    __slots__ = ("dest", "tag", "nbytes", "t_send", "available_at")

    def __init__(self, dest: int, tag: Hashable, nbytes: int, t_send: float,
                 available_at: float):
        Record.__init__(self, dest, tag, nbytes, t_send, available_at)


class RecvEdge(Record, frozen=True):
    """One message extraction, as seen by the receiver: ``t_arrive`` is
    the receiver's clock on reaching the receive, ``t_done`` after the
    merge and the receive overhead."""

    __slots__ = ("source", "tag", "nbytes", "t_arrive", "available_at", "t_done")

    def __init__(self, source: int, tag: Hashable, nbytes: int,
                 t_arrive: float, available_at: float, t_done: float):
        Record.__init__(self, source, tag, nbytes, t_arrive, available_at, t_done)

    @property
    def blocked(self) -> bool:
        """True if the receiver had to wait for the message."""
        return self.available_at > self.t_arrive


class _SpanContext:
    """Context manager opening/closing one span on a rank's stack."""

    __slots__ = ("_rt", "_name", "_phase", "_op", "_nbytes", "_elements", "_span")

    def __init__(self, rt: "RankTracer", name: str, phase: str | None,
                 op: str | None, nbytes: int, elements: int):
        self._rt = rt
        self._name = name
        self._phase = phase
        self._op = op
        self._nbytes = nbytes
        self._elements = elements

    def __enter__(self) -> Span:
        rt = self._rt
        parent = rt._stack[-1] if rt._stack else None
        span = Span(
            span_id=f"r{rt.rank}.{rt._seq}",
            parent_id=parent.span_id if parent else None,
            name=self._name,
            rank=rt.rank,
            t_start=rt._clock.t,
            phase=self._phase,
            op=self._op,
            nbytes=self._nbytes,
            elements=self._elements,
            depth=parent.depth + 1 if parent else 0,
        )
        rt._seq += 1
        rt._stack.append(span)
        self._span = span
        return span

    def __exit__(self, *exc: Any) -> bool:
        rt = self._rt
        span = rt._stack.pop()
        span.t_end = rt._clock.t
        rt.spans.append(span)
        return False


class RankTracer:
    """Span/message recorder for one rank of one run (single-threaded)."""

    enabled = True
    __slots__ = ("rank", "spans", "sends", "recvs", "_clock", "_stack",
                 "_seq")

    def __init__(self, rank: int, clock: Any):
        self.rank = rank
        self.spans: list[Span] = []  # completed spans, in completion order
        self.sends: list[SendEdge] = []
        self.recvs: list[RecvEdge] = []
        self._clock = clock
        self._stack: list[Span] = []
        self._seq = 0

    def span(self, name: str, *, phase: str | None = None,
             op: str | None = None, nbytes: int = 0,
             elements: int = 0) -> _SpanContext:
        """Open a span: ``with tracer.span("combine", phase="combine") as sp``.

        The span starts at the current virtual time on entry and ends at
        the virtual time on exit; it nests under the innermost open span.
        """
        return _SpanContext(self, name, phase, op, nbytes, elements)

    def note(self, **facts: Any) -> None:
        """Attach ``facts`` to the innermost open span's ``notes``:
        ``tracer.note(kernel="segmented")`` inside an accumulate span."""
        span = self._stack[-1]
        if span.notes is None:
            span.notes = facts
        else:
            span.notes.update(facts)

    # -- charges and message edges (called by RankContext when tracing) ---

    def on_charge(self, label: str, t_start: float, seconds: float) -> None:
        """Record one charged compute interval as a completed leaf span.
        It carries no phase, so phase summaries and the critical path
        (which read phased spans only) are unaffected."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(
            f"r{self.rank}.{self._seq}", parent.span_id if parent else None,
            label, self.rank, t_start, t_start + seconds,
            depth=parent.depth + 1 if parent else 0,
        ))
        self._seq += 1

    def on_send(self, dest: int, tag: Hashable, nbytes: int,
                t_send: float, available_at: float) -> None:
        """Record one message injection (for the critical-path walk)."""
        self.sends.append(SendEdge(dest, tag, nbytes, t_send, available_at))

    def on_recv(self, source: int, tag: Hashable, nbytes: int,
                t_arrive: float, available_at: float, t_done: float) -> None:
        """Record one message extraction (for the critical-path walk)."""
        self.recvs.append(
            RecvEdge(source, tag, nbytes, t_arrive, available_at, t_done)
        )


class RunCapture(Record):
    """Everything one ``spmd_run`` recorded: per-rank tracers + metadata.
    It is the job node of the trace tree (job → rank → span): one per
    attempt of an engine job.

    ``traces`` are the run's per-rank :class:`~repro.runtime.trace.Trace`
    counters (the same objects ``SpmdResult.traces`` holds), for the
    fault events a profile's counts include.  ``t_admitted`` /
    ``t_started`` / ``t_finished`` are the attempt's wall-clock stamps
    (``time.perf_counter``: admission or re-admission, gang start,
    finalize), None until the engine seals the run."""

    __slots__ = (
        "index", "nprocs", "ranks", "label", "makespan", "clocks", "traces",
        "t_admitted", "t_started", "t_finished",
    )

    def __init__(
        self,
        index: int,
        nprocs: int,
        ranks: list[RankTracer],
        label: str | None = None,
        makespan: float | None = None,
        clocks: list[float] | None = None,
        traces: list[Any] | None = None,
        t_admitted: float | None = None,
        t_started: float | None = None,
        t_finished: float | None = None,
    ):
        self.index = index
        self.nprocs = nprocs
        self.ranks = ranks
        self.label = label
        self.makespan = makespan
        self.clocks = clocks
        self.traces = traces
        self.t_admitted = t_admitted
        self.t_started = t_started
        self.t_finished = t_finished

    @property
    def queue_wait_s(self) -> float | None:
        """Wall seconds from (re-)admission to gang start."""
        if self.t_finished is None:
            return None
        return self.t_started - self.t_admitted

    @property
    def exec_s(self) -> float | None:
        """Wall seconds from gang start to finalize."""
        if self.t_finished is None:
            return None
        return self.t_finished - self.t_started

    @property
    def wall_s(self) -> float | None:
        """Wall seconds from (re-)admission to finalize."""
        if self.t_finished is None:
            return None
        return self.t_finished - self.t_admitted

    def spans(self) -> Iterator[Span]:
        """All ranks' completed spans."""
        for rt in self.ranks:
            yield from rt.spans

    def span_parents(self) -> dict[str, Span]:
        """Map span_id -> span over every rank (for ancestry walks)."""
        return {s.span_id: s for s in self.spans()}


class Tracer:
    """A profiling session: one capture per run."""

    enabled = True

    def __init__(self) -> None:
        self.runs: list[RunCapture] = []
        self._lock = threading.Lock()

    def begin_run(self, nprocs: int, clocks: list[Any],
                  label: str | None = None) -> RunCapture:
        """Create the per-rank tracers for one ``spmd_run`` (called by
        the :class:`~repro.runtime.world.JobWorld` constructor)."""
        ranks = [RankTracer(r, clocks[r]) for r in range(nprocs)]
        with self._lock:
            run = RunCapture(index=len(self.runs), nprocs=nprocs,
                             ranks=ranks, label=label)
            self.runs.append(run)
        return run

    def finish_run(self, run: RunCapture, clocks: list[float],
                   label: str | None = None,
                   wall: tuple[float, float, float] | None = None) -> None:
        """Seal a run with its final per-rank virtual times and, from
        the engine, its wall stamps ``(admitted, started, finished)``."""
        run.clocks = list(clocks)
        run.makespan = max(clocks) if clocks else 0.0
        if label is not None and run.label is None:
            run.label = label
        if wall is not None:
            run.t_admitted, run.t_started, run.t_finished = wall

    def spans(self) -> Iterator[Span]:
        """All spans across all runs."""
        for run in self.runs:
            yield from run.spans()


@contextmanager
def profiling(tracer: Tracer | None = None, *,
              ranks: int | None = None) -> Iterator[Tracer]:
    """Install ``tracer`` (a fresh one by default) as the active profile.

    While the context is open, every ``spmd_run`` in the process that is
    not given an explicit tracer records into it, and — if ``ranks`` is
    set — runs on that many simulated ranks regardless of the caller's
    ``nprocs``.  That override is what lets ``python -m repro profile
    --ranks N`` rescale workload scripts it does not control; leave it
    None everywhere else.
    """
    if tracer is None:
        tracer = Tracer()
    with _null.active_lock:
        previous = _null.active
        _null.active = (tracer, ranks)
    try:
        yield tracer
    finally:
        with _null.active_lock:
            _null.active = previous
