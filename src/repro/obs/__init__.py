"""Observability: phase-level span tracing and profile exporters.

The paper's structural claim — a global-view reduction/scan is an
**accumulate** phase, a **combine** phase, and a **generate** phase —
becomes measurable here.  Enable a :class:`Tracer` (directly via
``spmd_run(..., tracer=...)`` or ambiently via :func:`profiling`) and
every driver call emits nested spans on the virtual clock; disable it
and the hot paths see only the no-op :data:`NULL_TRACER`.  The span
profile is the only record a traced run writes: spans carry the facts
their code decided as notes (schedule, radix, kernel route, sweep and
wave widths), and :func:`repro.obs.export.profile_counts` counts them.
A run's :class:`RunCapture` is the job node of the tree: an engine job
seals it with its wall-clock queue wait and execution time beside the
virtual makespan.

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
    "export": (
        "dumps_jsonl", "format_text_report", "iter_jsonl_records",
        "phase_summary", "phase_topmost_spans", "write_jsonl"
    ),
    "tracer": (
        "NULL_TRACER", "RankTracer", "RecvEdge", "RunCapture", "SendEdge",
        "Span", "Tracer", "active_profile", "active_tracer", "profiling"
    ),
})
