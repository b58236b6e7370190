"""Analysis: speedup/efficiency series and paper-style reports."""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.attach(__name__, {
    "efficiency": ("Series", "crossover", "sweep"),
    "report": ("format_series_csv", "format_speedup_figure", "format_table"),
    "timeline": (
        "to_chrome_trace", "tracer_to_chrome_trace", "write_chrome_trace"
    ),
    "utilization": ("RankUtilization", "format_utilization", "utilization"),
})
