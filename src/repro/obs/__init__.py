"""Observability: phase-level span tracing, profile exporters, and the
engine's telemetry.

The paper's structural claim — a global-view reduction/scan is an
**accumulate** phase, a **combine** phase, and a **generate** phase —
becomes measurable here.  Enable a :class:`Tracer` (directly via
``spmd_run(..., tracer=...)`` or ambiently via :func:`profiling`) and
every driver call emits nested spans on the virtual clock; disable it
and the hot paths see only the no-op :data:`NULL_TRACER`.  The span
profile is the only record a traced run writes: spans carry the facts
their code decided as notes (schedule, radix, kernel route, sweep and
wave widths), and :func:`repro.obs.export.profile_counts` counts them.

Service-level telemetry for the persistent engine lives here too:
:class:`EngineTelemetry` stamps wall-clock job lifecycles and scheduler
gauges (:mod:`repro.obs.telemetry`) into a :class:`MetricsRegistry`
(:mod:`repro.obs.metrics`), :class:`P2Quantile` / :class:`QuantileSet`
give every :class:`Histogram` streaming p50/p95/p99
(:mod:`repro.obs.quantiles`), and :func:`render_prometheus` serves it
all as Prometheus text (:mod:`repro.obs.promexport`).

>>> from repro import spmd_run, global_reduce
>>> from repro.obs import Tracer, phase_summary
>>> from repro.ops import SumOp
>>> tracer = Tracer()
>>> res = spmd_run(
...     lambda comm: global_reduce(comm, SumOp(), [1, 2, 3]),
...     4, tracer=tracer)
>>> sorted(phase_summary(tracer)["ops"]["sum"])
['accumulate', 'combine', 'generate']
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "critpath": ("CriticalPath", "PathStep", "critical_path"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "export": (
        "dumps_jsonl", "format_text_report", "iter_jsonl_records",
        "phase_summary", "phase_topmost_spans", "write_jsonl"
    ),
    "promexport": ("prom_name", "render_prometheus"),
    "quantiles": ("DEFAULT_QUANTILES", "P2Quantile", "QuantileSet"),
    "telemetry": (
        "LIFECYCLE_STATES", "NULL_ENGINE_TELEMETRY", "EngineTelemetry",
        "JobLifecycle", "SnapshotRing"
    ),
    "tracer": (
        "NULL_TRACER", "RankTracer", "RecvEdge", "RunCapture", "SendEdge",
        "Span", "Tracer", "active_profile", "active_tracer", "profiling"
    ),
})
