"""Cross-job schedule cache for auto-tuned collective selection.

Every ``algorithm="auto"`` collective resolves its schedule through
:mod:`repro.mpi.tuning`: compute the payload's tuning inputs, then walk
the decision table's rank bands and byte cutoffs.  That walk is cheap
but not free, and under the persistent :class:`repro.engine.Engine` the
same (kind, nprocs, operand shape) questions repeat across thousands of
jobs — exactly the "schedules as reusable artifacts" observation of
Träff's optimality work.  A :class:`ScheduleCache` amortizes the lookup
across jobs sharing one :class:`~repro.runtime.world.World`.

Exactness
---------
The cache stores **constant-decision byte spans**, not point answers:
each entry is the maximal ``[lo, hi]`` interval around the queried size
on which the choice function is constant
(:func:`repro.mpi.tuning.constant_span`).  A hit anywhere inside the
span returns precisely what ``choose_*`` would have returned, so caching
can never move a crossover — the ``auto == explicit`` parity tests hold
with or without the cache.

Where the chosen schedule is one of the doubling schedules, the span is
narrowed to the interval on which the table's ``radix`` dimension is
constant too, and the entry carries that radix: one lookup per
collective answers both questions.  The table's radix is cached; the
two per-call guards of :func:`repro.mpi.tuning.fanout_admitted` (bytes
against the caller's cost model, folds against its ``combine_seconds``)
are evaluated on every :meth:`ScheduleCache.schedule` call, so a cached
answer is again exactly the uncached one.

Invalidation
------------
Entries key their validity on :func:`repro.mpi.tuning.table_generation`;
installing a new table (``set_decision_table``/``load_decision_table``)
bumps the generation and the next lookup drops every cached span.

Thread-safety
-------------
Reads are lock-free (a dict ``get`` of an immutable tuple); writes and
the generation flush take the cache lock.  The hit/miss counters are
best-effort under concurrency — they feed throughput reports, not
results.
"""

from __future__ import annotations

import threading

from repro.mpi import tuning as _tuning

__all__ = ["ScheduleCache"]

#: Log2 size-band granularity of cache keys.  Two payload sizes with the
#: same ``bit_length`` share an entry; the stored span still decides
#: correctness, the banding only bounds how many entries one (kind,
#: nprocs) pair can occupy.
def _size_band(nbytes: int) -> int:
    return nbytes.bit_length()


class ScheduleCache:
    """Memoized ``choose_allreduce``/``choose_reduce``/``choose_scan``.

    Keyed on ``(kind, nprocs, commutative, splittable, size_band,
    topology_signature)``;
    valued with the constant-decision span ``(lo, hi, algorithm,
    radix)`` (radix 2 wherever the algorithm is not a doubling schedule).
    One instance lives on each :class:`~repro.runtime.world.World`;
    engine job worlds delegate to their parent's so the amortization is
    cross-job.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: dict[tuple, tuple[int, int, str, int]] = {}
        self._generation = _tuning.table_generation()
        self.hits = 0
        self.misses = 0

    def choose(
        self,
        kind: str,
        nbytes: int,
        nprocs: int,
        commutative: bool = True,
        splittable: bool = False,
        *,
        topology: str = "flat",
    ) -> str:
        """The algorithm ``tuning.choose_<kind>`` would pick — cached.

        ``topology`` is the world's fabric signature; it joins the cache
        key because per-fabric decision tables can place crossovers
        differently (a flat world and a ``multi_node:4`` world sharing
        one cache must never cross-contaminate answers)."""
        return self._span(
            kind, nbytes, nprocs, commutative, splittable, topology
        )[2]

    def schedule(
        self,
        kind: str,
        nbytes: int,
        nprocs: int,
        commutative: bool = True,
        splittable: bool = False,
        *,
        topology: str = "flat",
        combine_seconds: float = 0.0,
        cost_model=None,
    ) -> tuple[str, int]:
        """``(algorithm, radix)`` for one ``algorithm="auto"`` collective
        from a single cached lookup: :meth:`choose`'s answer plus, for
        the doubling schedules, what ``tuning.choose_radix`` would
        return for this call's ``combine_seconds`` and ``cost_model``."""
        span = self._span(
            kind, nbytes, nprocs, commutative, splittable, topology
        )
        radix = span[3]
        if radix > 2 and not _tuning.fanout_admitted(
            radix, nbytes, nprocs, combine_seconds, cost_model
        ):
            radix = 2
        return span[2], radix

    def _span(
        self,
        kind: str,
        nbytes: int,
        nprocs: int,
        commutative: bool,
        splittable: bool,
        topology: str,
    ) -> tuple[int, int, str, int]:
        generation = _tuning.table_generation()
        if generation != self._generation:
            with self._lock:
                if generation != self._generation:
                    self._spans.clear()
                    self._generation = generation
        key = (
            kind, nprocs, commutative, splittable, _size_band(nbytes),
            topology,
        )
        span = self._spans.get(key)
        if span is not None and span[0] <= nbytes <= span[1]:
            self.hits += 1
            return span
        self.misses += 1
        lo, hi, algorithm = _tuning.constant_span(
            kind, nbytes, nprocs, commutative, splittable,
            topology=topology,
        )
        radix = 2
        if _tuning.RADIX_SCHEDULES.get(kind) == algorithm:
            rlo, rhi, radix = _tuning.constant_span(
                "radix", nbytes, nprocs, topology=topology
            )
            lo, hi = max(lo, rlo), min(hi, rhi)
        span = (lo, hi, algorithm, radix)
        with self._lock:
            if generation == self._generation:
                self._spans[key] = span
        return span

    def decisions(self) -> list[dict]:
        """One record per cached decision: the question (kind, ranks,
        operand class, fabric), the byte span it answers, the algorithm
        and — for the doubling schedules — the table radix with the
        ``radix`` band (``ranks <= max_ranks``, ``bytes <= max_bytes``)
        it was read from.  The per-call guards may still lower a
        recorded radix to 2 for a given call."""
        with self._lock:
            spans = sorted(self._spans.items())
        out = []
        for key, (lo, hi, algorithm, radix) in spans:
            kind, nprocs, commutative, splittable, _, topology = key
            record = {
                "kind": kind, "nprocs": nprocs, "commutative": commutative,
                "splittable": splittable, "topology": topology,
                "bytes": [lo, hi], "algorithm": algorithm,
            }
            if _tuning.RADIX_SCHEDULES.get(kind) == algorithm:
                band = _tuning.radix_band(lo, nprocs, topology=topology)
                record["radix"] = radix
                record["radix_band"] = {
                    "max_ranks": band[0], "max_bytes": band[1],
                }
            out.append(record)
        return out

    def stats(self) -> dict[str, int | float]:
        """Hit/miss counters plus entry count (best-effort under load)."""
        total = self.hits + self.misses
        return {
            "entries": len(self._spans),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def clear(self) -> None:
        """Drop every cached span (counters are kept)."""
        with self._lock:
            self._spans.clear()
