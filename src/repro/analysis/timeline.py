"""Export simulated timelines to the Chrome trace-event format.

One source: the span profile a :class:`repro.obs.Tracer` records
(``spmd_run(..., tracer=tracer)``).  The exported trace (loads in
``chrome://tracing`` / Perfetto, one row per rank, virtual-time axis)
contains real duration slices — every phase span and every collective
renders with its begin/end pair, nested slices and all, every charged
compute interval as a slice named by its label — plus instant markers
for each message sent and received.  Use :func:`tracer_to_chrome_trace`
for a whole profile (one Perfetto process per run) or
:func:`to_chrome_trace` on a result whose ``profile`` is set.

A second renderer lives on the **wall clock** rather than virtual time:
:func:`engine_session_to_chrome_trace` renders an engine telemetry's
per-rank busy intervals — which pool rank ran which job, when — as one
Perfetto timeline for the whole service session
(:mod:`repro.obs.telemetry`).
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.tracer import RunCapture, Tracer
from repro.runtime.executor import SpmdResult

__all__ = [
    "to_chrome_trace",
    "tracer_to_chrome_trace",
    "write_chrome_trace",
    "engine_session_to_chrome_trace",
    "write_engine_session_trace",
]

#: microseconds per virtual second in the output (trace format wants us)
_SCALE = 1e6


def _thread_meta(pid: int, nprocs: int) -> list[dict[str, Any]]:
    return [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": rank,
            "args": {"name": f"rank {rank}"},
        }
        for rank in range(nprocs)
    ]


def _span_events(run: RunCapture, pid: int) -> list[dict[str, Any]]:
    """Render every captured span as an "X" duration slice."""
    events: list[dict[str, Any]] = []
    for span in run.spans():
        args: dict[str, Any] = {"id": span.span_id}
        if span.op:
            args["op"] = span.op
        if span.nbytes:
            args["bytes"] = span.nbytes
        if span.elements:
            args["elements"] = span.elements
        events.append(
            {
                "name": span.name,
                "cat": span.phase or "span",
                "ph": "X",
                "pid": pid,
                "tid": span.rank,
                "ts": span.t_start * _SCALE,
                "dur": span.duration * _SCALE,
                "args": args,
            }
        )
    return events


def _message_flow_events(run: RunCapture, pid: int) -> list[dict[str, Any]]:
    """Instant markers for message injection/extraction recorded by the
    tracer; they annotate the span slices rather than replace them."""
    events: list[dict[str, Any]] = []
    for rt in run.ranks:
        for e in rt.sends:
            events.append(
                {
                    "name": f"send -> {e.dest}",
                    "cat": "send",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": rt.rank,
                    "ts": e.t_send * _SCALE,
                    "args": {"tag": str(e.tag), "bytes": e.nbytes},
                }
            )
        for e in rt.recvs:
            events.append(
                {
                    "name": f"recv <- {e.source}",
                    "cat": "recv",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": rt.rank,
                    "ts": e.t_done * _SCALE,
                    "args": {
                        "tag": str(e.tag),
                        "bytes": e.nbytes,
                        "blocked": e.blocked,
                    },
                }
            )
    return events


def to_chrome_trace(result: SpmdResult) -> dict[str, Any]:
    """Build the trace dict for one run from the span profile attached
    by ``spmd_run(..., tracer=...)``."""
    profile = result.profile
    if profile is None:
        raise ValueError(
            "result has no profile — pass a tracer: "
            "spmd_run(..., tracer=Tracer())"
        )
    events = _thread_meta(0, result.nprocs)
    events += _span_events(profile, 0)
    events += _message_flow_events(profile, 0)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "makespan_seconds": result.time,
            "nprocs": result.nprocs,
        },
    }


def tracer_to_chrome_trace(tracer: Tracer) -> dict[str, Any]:
    """Build one trace dict for a whole profile: each captured run
    becomes a Perfetto process (pid = run index) with one row per rank
    and duration slices for every span."""
    events: list[dict[str, Any]] = []
    for run in tracer.runs:
        label = f"run {run.index}" + (f" [{run.label}]" if run.label else "")
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": run.index,
                "args": {"name": label},
            }
        )
        events += _thread_meta(run.index, run.nprocs)
        events += _span_events(run, run.index)
        events += _message_flow_events(run, run.index)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "runs": len(tracer.runs),
            "total_virtual_seconds": sum(
                r.makespan or 0.0 for r in tracer.runs
            ),
        },
    }


def engine_session_to_chrome_trace(telemetry: Any) -> dict[str, Any]:
    """Build one trace dict from an engine session's telemetry.

    One Perfetto process ("engine pool"), one row per pool rank, and an
    "X" slice per closed busy interval — i.e. per (job, member-rank)
    execution — named by the job's label, on the **wall-clock** axis
    (seconds since telemetry start).  This is the service-level
    complement to the virtual-time run traces above: it shows
    multiplexing, gang packing and idle gaps across jobs.
    """
    intervals = telemetry.intervals()
    nprocs = getattr(telemetry, "nprocs", 0)
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": "engine pool (wall clock)"},
        }
    ]
    events += _thread_meta(0, nprocs)
    for rank, t0, t1, job_id, label in intervals:
        events.append(
            {
                "name": label or f"job {job_id}",
                "cat": "job",
                "ph": "X",
                "pid": 0,
                "tid": rank,
                "ts": t0 * _SCALE,
                "dur": (t1 - t0) * _SCALE,
                "args": {"job_id": job_id},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "wall",
            "nprocs": nprocs,
            "intervals": len(intervals),
            "interval_drops": getattr(telemetry, "interval_drops", 0),
        },
    }


def write_engine_session_trace(telemetry: Any, path: str) -> None:
    """Serialize an engine session's per-rank busy timeline to ``path``
    (open in Perfetto)."""
    with open(path, "w") as f:
        json.dump(engine_session_to_chrome_trace(telemetry), f)


def write_chrome_trace(result: SpmdResult | Tracer, path: str) -> None:
    """Serialize a result's or a whole profile's trace to ``path``
    (open in Perfetto)."""
    if isinstance(result, Tracer):
        doc = tracer_to_chrome_trace(result)
    else:
        doc = to_chrome_trace(result)
    with open(path, "w") as f:
        json.dump(doc, f)
