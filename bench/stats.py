"""Statistics used by the benchmark and its A/A check.

Three rules live here so that ``run.py`` and ``aa.py`` cannot drift:

* per-window values are reduced by the **median across windows**;
* a percentile of pooled samples is answered only when enough samples
  lie beyond it (100 by default) — a p95 over 40 samples is one
  scheduler hiccup, not a property of the program;
* a metric "got worse" by a **share of the parent's value**, signed by
  the metric's direction, and is compared with its declared bound.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

__all__ = [
    "InsufficientSamples",
    "median",
    "spread_share",
    "pooled_percentile",
    "highest_percentile",
    "worse_by",
    "within_bound",
]

#: Samples that must lie at or beyond a percentile before it is reported.
MIN_BEYOND = 100


class InsufficientSamples(ValueError):
    """Raised instead of answering from too few samples."""


def median(values: Iterable[float]) -> float:
    """Median of per-window (or per-run) values; refuses an empty set."""
    values = list(values)
    if not values:
        raise InsufficientSamples("median of no values")
    return float(statistics.median(values))


def spread_share(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median — the steadiness
    figure the driver computes over ten runs
    (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        raise InsufficientSamples("spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    if q2 == 0:
        raise ZeroDivisionError("spread of a metric whose median is 0")
    return (q3 - q1) / abs(q2)


def _beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie at or beyond percentile ``pct`` on
    its far side (the upper side for pct >= 50)."""
    tail = (100.0 - pct) if pct >= 50.0 else pct
    return int(math.floor(n * tail / 100.0))


def pooled_percentile(
    samples: Sequence[float], pct: float, *, min_beyond: int = MIN_BEYOND
) -> float:
    """The ``pct``-th percentile (nearest rank) of the pooled samples.

    Raises :class:`InsufficientSamples` unless at least ``min_beyond``
    samples lie at or beyond it — the median needs ``2 * min_beyond``
    samples, p95 needs ``20 * min_beyond``."""
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {pct}")
    n = len(samples)
    beyond = _beyond(n, pct)
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{pct:g} needs {min_beyond} samples beyond it, "
            f"{n} samples give {beyond}"
        )
    ordered = sorted(samples)
    rank = max(1, math.ceil(n * pct / 100.0))
    return float(ordered[rank - 1])


def highest_percentile(
    samples: Sequence[float],
    candidates: Sequence[float] = (50.0, 75.0, 90.0, 95.0, 99.0),
    *,
    min_beyond: int = MIN_BEYOND,
) -> tuple[float, float]:
    """``(pct, value)`` for the highest candidate percentile the samples
    can answer under the ``min_beyond`` rule."""
    for pct in sorted(candidates, reverse=True):
        try:
            return pct, pooled_percentile(samples, pct, min_beyond=min_beyond)
        except InsufficientSamples:
            continue
    raise InsufficientSamples(
        f"{len(samples)} samples answer none of {sorted(candidates)}"
    )


def worse_by(parent: float, change: float, better: str) -> float:
    """By what share of ``parent`` the ``change`` value is worse
    (negative when it is better).  ``better`` is ``"lower"`` or
    ``"higher"``, as declared in ``BENCHMARK.json``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if parent == 0:
        raise ZeroDivisionError("a gated metric must never read 0")
    delta = change - parent if better == "lower" else parent - change
    return delta / abs(parent)


def within_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """True unless ``change`` is worse than ``parent`` by more than
    ``bound`` (a share of the parent's value)."""
    return worse_by(parent, change, better) <= bound
