"""Phase-level span tracing on the virtual clock.

A **span** is a named interval of one rank's virtual time — a
``global_reduce`` call, its ``accumulate``/``combine``/``generate``
phases, a collective underneath the combine.  Spans nest (each rank
keeps a stack), carry the operator name and byte/element counts, and are
timestamped from the rank's :class:`~repro.runtime.clock.VirtualClock`,
so a profile describes *simulated* time exactly.

Objects
-------
* :class:`Tracer` — one per profiling session; owns the shared
  :class:`~repro.obs.metrics.MetricsRegistry` and one
  :class:`RunCapture` per ``spmd_run``.
* :class:`RankTracer` — one per rank per run; the handle hot paths use
  (``with comm.tracer.span(...)``).  Single-threaded by construction
  (each rank is one thread), so recording takes no locks.
* :data:`NULL_TRACER` — the disabled stand-in.  Its ``span()`` returns a
  shared no-op context manager and its hooks do nothing, which is what
  makes tracing zero-overhead when off: the hot paths contain only an
  attribute load, a call, and an ``enabled`` check.

The module also maintains the **active profile**: a process-wide
``(tracer, ranks_override)`` installed by :func:`profiling`, which
``spmd_run`` consults when no tracer is passed explicitly.  This is how
``python -m repro profile`` traces example scripts it does not control.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Hashable, Iterator

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

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


@dataclass
class Span:
    """One named interval of one rank's virtual timeline."""

    span_id: str
    parent_id: str | None
    name: str
    rank: int
    t_start: float
    t_end: float = 0.0
    phase: str | None = None  # "accumulate" | "combine" | "generate" | ...
    op: str | None = None  # operator name, when the span belongs to one
    nbytes: int = 0
    elements: int = 0
    depth: int = 0

    @property
    def duration(self) -> float:
        """Virtual seconds covered by the span."""
        return self.t_end - self.t_start

    def add(self, nbytes: int = 0, elements: int = 0) -> None:
        """Accumulate byte/element counts onto the span."""
        self.nbytes += nbytes
        self.elements += elements


@dataclass(frozen=True)
class SendEdge:
    """One message injection, as seen by the sender."""

    dest: int
    tag: Hashable
    nbytes: int
    t_send: float  # sender clock after paying the send overhead
    available_at: float  # when the message becomes receivable


@dataclass(frozen=True)
class RecvEdge:
    """One message extraction, as seen by the receiver."""

    source: int
    tag: Hashable
    nbytes: int
    t_arrive: float  # receiver clock on reaching the receive
    available_at: float
    t_done: float  # receiver clock after merge + receive overhead

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


class _NullSpan:
    """Shared do-nothing span/context used when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def add(self, nbytes: int = 0, elements: int = 0) -> None:
        pass


#: Shared do-nothing span returned by every disabled ``span()`` call.
NULL_SPAN = _NULL_SPAN = _NullSpan()


class RankTracer:
    """Span/message recorder for one rank of one run (single-threaded)."""

    enabled = True
    __slots__ = ("rank", "metrics", "spans", "sends", "recvs", "_clock",
                 "_stack", "_seq")

    def __init__(self, rank: int, clock: Any, metrics: MetricsRegistry):
        self.rank = rank
        self.metrics = metrics
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


class _NullRankTracer:
    """Disabled tracer: every hook is a no-op, ``span()`` allocates nothing."""

    enabled = False
    metrics = NULL_METRICS
    __slots__ = ()

    def span(self, name: str, **kwargs: Any) -> _NullSpan:
        return _NULL_SPAN

    def on_send(self, *args: Any) -> None:
        pass

    def on_recv(self, *args: Any) -> None:
        pass


#: Shared disabled tracer handed to every rank when no profiling is active.
NULL_TRACER = _NullRankTracer()


@dataclass
class RunCapture:
    """Everything one ``spmd_run`` recorded: per-rank tracers + metadata."""

    index: int
    nprocs: int
    ranks: list[RankTracer]
    label: str | None = None
    makespan: float | None = None
    clocks: list[float] | None = None

    def spans(self) -> Iterator[Span]:
        """All ranks' completed spans."""
        for rt in self.ranks:
            yield from rt.spans

    def span_parents(self) -> dict[str, Span]:
        """Map span_id -> span over every rank (for ancestry walks)."""
        return {s.span_id: s for s in self.spans()}


class Tracer:
    """A profiling session: shared metrics plus one capture per run."""

    enabled = True

    def __init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.runs: list[RunCapture] = []
        self._lock = threading.Lock()

    def begin_run(self, nprocs: int, clocks: list[Any],
                  label: str | None = None) -> RunCapture:
        """Create the per-rank tracers for one ``spmd_run`` (called by
        the :class:`~repro.runtime.world.JobWorld` constructor)."""
        ranks = [RankTracer(r, clocks[r], self.metrics) for r in range(nprocs)]
        with self._lock:
            run = RunCapture(index=len(self.runs), nprocs=nprocs,
                             ranks=ranks, label=label)
            self.runs.append(run)
        return run

    def finish_run(self, run: RunCapture, clocks: list[float],
                   label: str | None = None) -> None:
        """Seal a run with its final per-rank virtual times."""
        run.clocks = list(clocks)
        run.makespan = max(clocks) if clocks else 0.0
        if label is not None and run.label is None:
            run.label = label

    def spans(self) -> Iterator[Span]:
        """All spans across all runs."""
        for run in self.runs:
            yield from run.spans()


# -- the active profile (what `spmd_run` picks up when not passed a tracer) --

_active_lock = threading.Lock()
_active: tuple[Tracer, int | None] | None = None


def active_tracer() -> Tracer | None:
    """The tracer installed by :func:`profiling`, if any."""
    return _active[0] if _active is not None else None


def active_profile() -> tuple[Tracer | None, int | None]:
    """The installed ``(tracer, ranks_override)`` pair (both None if off)."""
    return _active if _active is not None else (None, None)


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
    global _active
    if tracer is None:
        tracer = Tracer()
    with _active_lock:
        previous = _active
        _active = (tracer, ranks)
    try:
        yield tracer
    finally:
        with _active_lock:
            _active = previous
