"""Profile exporters: phase summaries, counts, JSONL, and a text report.

Four views of one span profile:

* :func:`phase_summary` — a JSON-serializable per-operator, per-phase
  aggregate (span counts, virtual seconds, bytes, elements), used by the
  benchmark harness for ``BENCH_*.json`` files.
* :func:`profile_counts` — event counts read off the spans' notes
  (collective schedules, kernel routes, shared sweeps, fused waves,
  nonblocking issues) and the runs' fault events.
* :func:`iter_jsonl_records` / :func:`write_jsonl` / :func:`dumps_jsonl`
  — a structured line-per-record stream (runs, spans, counts) for
  machine post-processing.
* :func:`format_text_report` — the human-readable breakdown printed by
  ``python -m repro profile ... --format text``.

**Double-counting rule.**  Spans nest, and an inner span may share its
ancestor's phase (``combine`` at the driver level contains ``combine``
at the local-view level contains the collective).  Aggregates therefore
count only *phase-topmost* spans — spans none of whose ancestors carry
the same phase — so each virtual second and each byte is attributed to
a phase exactly once.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Iterable, Iterator

from repro.obs.critpath import critical_path
from repro.obs.tracer import RunCapture, Span, Tracer

__all__ = [
    "phase_topmost_spans",
    "phase_summary",
    "profile_counts",
    "iter_jsonl_records",
    "write_jsonl",
    "dumps_jsonl",
    "format_text_report",
]


def _as_runs(profile: Tracer | RunCapture | Iterable[RunCapture]) -> list[RunCapture]:
    if isinstance(profile, Tracer):
        return list(profile.runs)
    if isinstance(profile, RunCapture):
        return [profile]
    return list(profile)


def phase_topmost_spans(run: RunCapture) -> Iterator[Span]:
    """Spans whose phase is set and no ancestor of which carries a phase.

    These are the outermost phase attributions — a ``collective`` span
    under a driver's ``combine`` span is transport detail of time the
    combine phase already owns, so it is excluded.
    """
    by_id = run.span_parents()
    for span in run.spans():
        if span.phase is None:
            continue
        parent = by_id.get(span.parent_id) if span.parent_id else None
        shadowed = False
        while parent is not None:
            if parent.phase is not None:
                shadowed = True
                break
            parent = by_id.get(parent.parent_id) if parent.parent_id else None
        if not shadowed:
            yield span


def phase_summary(
    profile: Tracer | RunCapture | Iterable[RunCapture],
) -> dict[str, Any]:
    """Aggregate per-operator, per-phase metrics across runs.

    Returns ``{"runs", "total_virtual_seconds", "ops": {op: {phase:
    {"spans", "virtual_seconds", "bytes", "elements"}}}}``; spans with no
    operator aggregate under ``"(none)"``.
    """
    runs = _as_runs(profile)
    ops: dict[str, dict[str, dict[str, float]]] = {}
    for run in runs:
        for span in phase_topmost_spans(run):
            op = span.op or "(none)"
            cell = ops.setdefault(op, {}).setdefault(
                span.phase,
                {"spans": 0, "virtual_seconds": 0.0, "bytes": 0, "elements": 0},
            )
            cell["spans"] += 1
            cell["virtual_seconds"] += span.duration
            cell["bytes"] += span.nbytes
            cell["elements"] += span.elements
    return {
        "runs": len(runs),
        "total_virtual_seconds": sum(r.makespan or 0.0 for r in runs),
        "ops": ops,
    }


def profile_counts(
    profile: Tracer | RunCapture | Iterable[RunCapture],
) -> dict[str, int]:
    """Event counts across runs, read off the span notes and the runs'
    fault events: schedules per collective call, nonblocking issues,
    kernel routes, shared sweeps, fused waves and ``faults.<event>``;
    keys sorted, zero counts absent (catalogue: docs/observability.md).
    """
    counts: Counter[str] = Counter()
    widths: Counter[int] = Counter()  # shared-sweep members by width
    for run in _as_runs(profile):
        for span in run.spans():
            notes = span.notes
            if not notes:
                continue
            schedule = notes.get("schedule")
            if schedule is not None:
                counts[f"collective.{schedule}"] += 1
                if "radix" in notes:
                    radix = notes["radix"]
                    counts[f"collective.{schedule}.radix_{radix}"] += 1
            if notes.get("request"):
                counts["coll.nonblocking.issued"] += 1
            kernel = notes.get("kernel")
            if kernel is not None:
                family = "scan" if span.phase == "generate" else "accum"
                counts[f"kernels.{family}.{kernel}"] += 1
            sweep = notes.get("sweep", 0)
            if sweep == 1:
                counts["kernels.batch.fallback_passes"] += 1
            elif sweep > 1:
                widths[sweep] += 1
            wave = notes.get("wave")
            if wave is not None:
                counts["fusion.waves"] += 1
                counts["fusion.waves_saved"] += wave - 1
        for trace in run.traces or ():
            for event, n in (trace.faults or {}).items():
                counts[f"faults.{event}"] += n
    if widths:
        counts["kernels.batch.members"] = sum(widths.values())
        # Every member of a sweep notes the sweep's width.
        counts["kernels.batch.sweeps"] = sum(
            members // width for width, members in widths.items()
        )
    return dict(sorted(counts.items()))


# -- JSONL -----------------------------------------------------------------


def iter_jsonl_records(tracer: Tracer) -> Iterator[dict[str, Any]]:
    """Yield one dict per record: runs, spans, then the profile's
    :func:`profile_counts`."""
    for run in tracer.runs:
        yield {
            "type": "run",
            "run": run.index,
            "label": run.label,
            "nprocs": run.nprocs,
            "makespan": run.makespan,
            "queue_wait_s": run.queue_wait_s,
            "exec_s": run.exec_s,
            "wall_s": run.wall_s,
        }
        for span in run.spans():
            yield {
                "type": "span",
                "run": run.index,
                "rank": span.rank,
                "id": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "phase": span.phase,
                "op": span.op,
                "t_start": span.t_start,
                "t_end": span.t_end,
                "bytes": span.nbytes,
                "elements": span.elements,
                "notes": span.notes,
            }
    yield {"type": "counts", "counts": profile_counts(tracer)}


def dumps_jsonl(tracer: Tracer) -> str:
    """The whole profile as newline-delimited JSON."""
    return "\n".join(
        json.dumps(rec, allow_nan=False) for rec in iter_jsonl_records(tracer)
    ) + "\n"


def write_jsonl(tracer: Tracer, path: str) -> None:
    """Serialize :func:`iter_jsonl_records` to ``path``."""
    with open(path, "w") as f:
        f.write(dumps_jsonl(tracer))


# -- text report -----------------------------------------------------------


def _fmt_seconds(s: float) -> str:
    return f"{s * 1e6:12.1f}"


def format_text_report(tracer: Tracer) -> str:
    """Human-readable per-phase breakdown: one operator table per run
    set, per-rank phase totals, the critical path, and the counts."""
    lines: list[str] = []
    if not tracer.runs:
        # An explicit empty report beats a zero-filled table: the usual
        # cause is a target that never entered spmd_run under the tracer.
        return (
            "profile: no runs captured (nothing entered spmd_run under "
            "this tracer)\n"
        )
    summary = phase_summary(tracer)
    lines.append(
        f"profile: {summary['runs']} run(s), "
        f"{summary['total_virtual_seconds'] * 1e6:.1f} us total virtual time"
    )
    for run in tracer.runs:
        label = f" [{run.label}]" if run.label else ""
        line = (
            f"  run {run.index}{label}: {run.nprocs} ranks, makespan "
            f"{(run.makespan or 0.0) * 1e6:.1f} us"
        )
        if run.wall_s is not None:
            line += (
                f"; wall queue_wait_s {run.queue_wait_s:.6f}, "
                f"exec_s {run.exec_s:.6f}, wall_s {run.wall_s:.6f}"
            )
        lines.append(line)
    lines.append("")
    lines.append("per-operator phase breakdown (virtual rank-seconds, all runs)")
    header = (
        f"  {'operator':<20s} {'phase':<12s} {'spans':>7s} "
        f"{'us':>12s} {'bytes':>12s} {'elements':>10s}"
    )
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for op in sorted(summary["ops"]):
        phases = summary["ops"][op]
        order = {"accumulate": 0, "combine": 1, "generate": 2}
        for phase in sorted(phases, key=lambda p: (order.get(p, 9), p)):
            cell = phases[phase]
            lines.append(
                f"  {op:<20s} {phase:<12s} {cell['spans']:>7d} "
                f"{_fmt_seconds(cell['virtual_seconds'])} "
                f"{cell['bytes']:>12d} {cell['elements']:>10d}"
            )
    if not summary["ops"]:
        lines.append("  (no phased spans recorded)")

    for run in tracer.runs:
        cp = critical_path(run)
        if cp.total <= 0:
            continue
        lines.append("")
        label = f" [{run.label}]" if run.label else ""
        lines.append(
            f"critical path, run {run.index}{label} "
            f"(ends on rank {cp.end_rank}, {cp.total * 1e6:.1f} us):"
        )
        for phase, seconds in sorted(
            cp.phase_seconds.items(), key=lambda kv: -kv[1]
        ):
            lines.append(
                f"  {phase:<12s} {seconds * 1e6:12.1f} us "
                f"({100.0 * cp.fraction(phase):5.1f}%)"
            )

    counts = profile_counts(tracer)
    if counts:
        lines.append("")
        lines.append("counts")
        for name, value in counts.items():
            lines.append(f"  {name:<40s} {value}")
    return "\n".join(lines) + "\n"
