"""Metrics registry: counters, gauges, and log-bucketed histograms.

The persistent engine's telemetry (:mod:`repro.obs.telemetry`) keeps its
job-lifecycle latencies, scheduler gauges and engine counters here, and
:mod:`repro.obs.promexport` serves them.  Instruments are cheap named
accumulators; several threads may update one (instruments take a lock
on mutation), and the whole registry snapshots to a plain
JSON-serializable dict.  Traced runs do not use it: their counts are
read off the span profile (:func:`repro.obs.export.profile_counts`).

Histograms use base-2 logarithmic buckets: an observation ``v`` falls in
the bucket whose upper bound is the smallest power of two ``>= v``
(bucket ``2**k`` covers ``(2**(k-1), 2**k]``).  Zero lands in a dedicated
zero bucket and infinity in an overflow bucket, so the edge cases of
"no latency charged" and "unbounded" stay visible instead of crashing
the log.  Every histogram additionally carries a
:class:`~repro.obs.quantiles.QuantileSet` (p50/p95/p99 by default), so
tail latency is readable straight off a snapshot without storing
observations.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterator

from repro.obs.quantiles import QuantileSet

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the current value of the gauge.

        A single attribute store is atomic under the GIL, and
        last-write-wins is the gauge contract, so no lock is taken —
        gauges sit on the telemetry hot path."""
        self.value = value


#: Size of the bounded pending-observation buffer feeding the P²
#: estimators.  A histogram scraped at least once per this many
#: observations loses nothing; an unscraped one keeps the most recent
#: window (old pending observations are evicted, never burst-drained
#: on the writer's thread).
_QUANTILE_PENDING_CAP = 4096


class Histogram:
    """Log2-bucketed distribution of non-negative observations, with
    streaming p50/p95/p99 (P²) estimation on the side.

    The P² marker updates are deliberately **never** run inside
    :meth:`observe`: observations queue in a bounded pending buffer (a
    deque append under the lock — O(1) always) and are drained into the
    estimators on a quantile *read* — :meth:`quantile` or
    :meth:`summary`.  Reads are scrape-time events (snapshots,
    Prometheus, dashboards), so the estimation cost lands on the
    monitoring path, not on the engine's submit/complete hot path.  A
    histogram that is written but never scraped evicts its oldest
    pending observations instead of draining them: its eventual
    quantile estimates cover the most recent ``_QUANTILE_PENDING_CAP``
    observations — the window a monitoring read wants anyway — while
    the bucket counts, count/sum/min/max stay exact over everything.
    """

    __slots__ = ("_lock", "_buckets", "zero_count", "inf_count",
                 "count", "total", "min", "max", "_quantiles", "_pending")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}  # exponent k -> count in (2^(k-1), 2^k]
        self.zero_count = 0
        self.inf_count = 0
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._quantiles = QuantileSet()
        self._pending: deque[float] = deque(maxlen=_QUANTILE_PENDING_CAP)

    @staticmethod
    def bucket_exponent(value: float) -> int:
        """The exponent ``k`` of the bucket ``(2**(k-1), 2**k]`` holding
        ``value`` (which must be positive and finite)."""
        mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
        # frexp keeps mantissa in [0.5, 1); exact powers of two are the
        # bucket's inclusive upper bound.
        return exponent - 1 if mantissa == 0.5 else exponent

    def observe(self, value: float) -> None:
        """Record one observation; negative values are rejected."""
        if value < 0:
            raise ValueError(f"histogram observations must be >= 0, got {value}")
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if value == 0:
                self.zero_count += 1
            elif math.isinf(value):
                self.inf_count += 1
            else:
                k = self.bucket_exponent(value)
                self._buckets[k] = self._buckets.get(k, 0) + 1
            if not math.isinf(value):
                # Bounded append: a full buffer evicts its oldest entry
                # instead of draining here — observe stays O(1).
                self._pending.append(value)

    def _drain_locked(self) -> None:
        """Feed queued observations to the P² estimators (lock held)."""
        if self._pending:
            observe = self._quantiles.observe
            for value in self._pending:
                observe(value)
            self._pending.clear()

    def buckets(self) -> list[tuple[float, int]]:
        """Sorted ``(upper_bound, count)`` pairs for the occupied buckets,
        with the zero bucket first and the overflow bucket last."""
        out: list[tuple[float, int]] = []
        if self.zero_count:
            out.append((0.0, self.zero_count))
        for k in sorted(self._buckets):
            out.append((float(2.0 ** k), self._buckets[k]))
        if self.inf_count:
            out.append((math.inf, self.inf_count))
        return out

    @property
    def tracked_quantiles(self) -> tuple[float, ...]:
        """Quantile levels this histogram estimates (default p50/p95/p99)."""
        return self._quantiles.quantiles

    def quantile(self, p: float) -> float | None:
        """Streaming estimate of the ``p`` quantile (P²; exact below five
        observations).  ``p`` must be one of :attr:`tracked_quantiles`."""
        with self._lock:
            self._drain_locked()
            return self._quantiles.value(p)

    def summary(self) -> dict[str, Any]:
        """JSON-serializable summary of the distribution."""
        with self._lock:
            self._drain_locked()
            quantiles = self._quantiles.summary()
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            **quantiles,
            "buckets": [
                ["inf" if math.isinf(le) else le, n] for le, n in self.buckets()
            ],
        }


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted as one dict."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls: type) -> Any:
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls()
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} is a {type(inst).__name__}, "
                    f"not a {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def __iter__(self) -> Iterator[tuple[str, Any]]:
        with self._lock:
            items = list(self._instruments.items())
        return iter(sorted(items))

    def snapshot(self) -> dict[str, Any]:
        """All instruments as a plain dict: ``{counters, gauges, histograms}``."""
        counters: dict[str, int] = {}
        gauges: dict[str, float | None] = {}
        histograms: dict[str, Any] = {}
        for name, inst in self:
            if isinstance(inst, Counter):
                counters[name] = inst.value
            elif isinstance(inst, Gauge):
                gauges[name] = inst.value
            else:
                histograms[name] = inst.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

