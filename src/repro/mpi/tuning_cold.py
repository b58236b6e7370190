"""The decision-table calls no job makes: installing, loading, writing
and checking tables, and the point queries tests and tools ask.

A job's ``algorithm="auto"`` reads the active table through the schedule
cache (:func:`repro.mpi.tuning.constant_span`); everything here runs
from ``python -m repro tune``, the tests and user code that installs a
table, so :mod:`repro.mpi.tuning` leaves it out of a cold start and
re-exports each name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.mpi import collectives as _coll
from repro.mpi import tuning as _t
from repro.mpi.tuning import (
    _DIMENSIONS,
    _UNBOUNDED,
    FUSION_CANDIDATES,
    TUNED_KINDS,
    Band,
    DecisionTable,
    _band_for,
    _band_span,
    candidates,
    constant_span,
    fanout_admitted,
    get_decision_table,
)
from repro.runtime.costmodel import CostModel

if TYPE_CHECKING:
    from repro.mpi.schedule_cache import ScheduleCache

__all__ = [
    "set_decision_table",
    "load_decision_table",
    "table_to_dict",
    "table_from_dict",
    "choose_allreduce",
    "choose_reduce",
    "choose_scan",
    "choose_fusion",
    "choose_radix",
    "radix_band",
]


# ---------------------------------------------------------------------------
# Installing tables
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Writing and reading tables
# ---------------------------------------------------------------------------


def table_to_dict(table: DecisionTable) -> dict[str, Any]:
    """:meth:`DecisionTable.to_dict`."""

    def enc(bands: tuple[Band, ...]):
        return [
            {
                "max_ranks": (
                    b.max_ranks if b.max_ranks < _UNBOUNDED else None
                ),
                "cutoffs": [
                    [mb if mb < _UNBOUNDED else None, algo]
                    for mb, algo in b.cutoffs
                ],
            }
            for b in bands
        ]

    return {
        "source": table.source,
        "topology": table.topology,
        **{kind: enc(getattr(table, kind)) for kind in _DIMENSIONS},
    }


def table_from_dict(
    data: dict[str, Any], cls: type = DecisionTable
) -> DecisionTable:
    """:meth:`DecisionTable.from_dict`: every entry is checked against
    what its dimension can actually run (registered schedule names, a
    power-of-two radix) — a typo fails here, naming the kind, band and
    entry, not mid-job when a payload first lands in that band.
    Sections that are not a dimension of the table (the ``"kernel"``
    section of tables written before it was removed) are ignored."""

    def dec(kind: str) -> tuple[Band, ...]:
        return tuple(
            Band(
                max_ranks=(
                    _UNBOUNDED if b["max_ranks"] is None
                    else int(b["max_ranks"])
                ),
                cutoffs=tuple(
                    (
                        _UNBOUNDED if mb is None else int(mb),
                        _checked_entry(kind, b["max_ranks"], mb, entry),
                    )
                    for mb, entry in b["cutoffs"]
                ),
            )
            for b in data[kind]
        )

    return cls(
        **{
            # Tables written before the fusion/radix dimensions
            # existed keep the conservative fallbacks.
            kind: dec(kind)
            for kind in _DIMENSIONS
            if kind in TUNED_KINDS or data.get(kind)
        },
        source=str(data.get("source", "loaded")),
        # Tables written before fabrics existed are flat tables.
        topology=str(data.get("topology", "flat")),
    )



def _checked_entry(kind: str, max_ranks, max_bytes, entry) -> str | int:
    """One decoded table entry of dimension ``kind``, or a ``ValueError``
    naming where in the table the unusable entry sits."""
    if kind == "radix":
        valid = (
            isinstance(entry, int) and entry >= 2 and not entry & (entry - 1)
        )
        expected = "a power of two >= 2"
    else:
        names = (
            candidates(kind, fabric=True) if kind in TUNED_KINDS
            else FUSION_CANDIDATES
        )
        entry = str(entry)
        valid = entry in names
        expected = "one of " + ", ".join(repr(n) for n in names)
    if valid:
        return entry
    removed = _coll.REMOVED.get((kind, entry))
    raise ValueError(
        f"decision table: {kind!r} band ranks<={max_ranks} "
        f"bytes<={max_bytes} holds {entry!r}"
        + (f" ({removed})" if removed else "")
        + f"; expected {expected}"
    )


def set_decision_table(
    table: DecisionTable | None, *, topology: str | None = None
) -> DecisionTable | None:
    """Install ``table`` and return the table it replaced.

    ``topology=None`` (the default) installs under the table's own
    :attr:`DecisionTable.topology` signature — ``"flat"`` replaces the
    process-wide active table (``table=None`` restores the shipped
    default); a non-flat signature installs into the per-fabric registry
    (``table=None`` clears that fabric's entry).
    """
    if topology is None:
        topology = "flat" if table is None else table.topology
    _t._table_generation += 1
    if topology == "flat":
        previous: DecisionTable | None = _t._active_table
        _t._active_table = _t.DEFAULT_TABLE if table is None else table
        return previous
    if table is None:
        return _t._topology_tables.pop(topology, None)
    prev = _t._topology_tables.get(topology)
    _t._topology_tables[topology] = table
    return prev


def load_decision_table(path) -> DecisionTable:
    """Load a table emitted by ``python -m repro tune`` and install it
    (under its own topology signature).  ``path`` is a ``str`` or
    :class:`~pathlib.Path`."""
    import json
    from pathlib import Path

    table = table_from_dict(json.loads(Path(path).read_text()))
    set_decision_table(table)
    return table



# ---------------------------------------------------------------------------
# Point queries (a job asks the schedule cache instead)
# ---------------------------------------------------------------------------

def choose_allreduce(
    nbytes: int, nprocs: int, commutative: bool = True,
    splittable: bool = False, *, table: DecisionTable | None = None,
    topology: str = "flat",
) -> str:
    """Pick the all-reduce schedule for one call site.

    Non-commutative or non-splittable operands always get the
    order-preserving recursive doubling; otherwise the decision table's
    byte thresholds decide between recursive doubling, ring,
    Rabenseifner and (on fabrics with a fitted per-topology table) the
    hierarchical node/leader schedule.
    """
    return constant_span(
        "allreduce", nbytes, nprocs, commutative, splittable,
        table=table, topology=topology,
    )[2]


def choose_reduce(
    nbytes: int, nprocs: int, commutative: bool = True,
    splittable: bool = False, *, table: DecisionTable | None = None,
    topology: str = "flat",
) -> str:
    """Pick the rooted-reduce schedule.  The pipelined ring is
    order-preserving, so commutativity does not restrict the choice —
    only splittability does."""
    return constant_span(
        "reduce", nbytes, nprocs, commutative, splittable,
        table=table, topology=topology,
    )[2]


def choose_scan(
    nbytes: int, nprocs: int, commutative: bool = True,
    splittable: bool = False, *, table: DecisionTable | None = None,
    topology: str = "flat",
) -> str:
    """Pick the scan/exscan schedule.  Both candidates are
    order-preserving and neither segments the payload, so the table
    decides unconditionally."""
    return constant_span(
        "scan", nbytes, nprocs, commutative, splittable,
        table=table, topology=topology,
    )[2]


def choose_fusion(
    nbytes: int,
    nprocs: int,
    *,
    table: DecisionTable | None = None,
) -> str:
    """Should a reduction bucket holding ``nbytes`` of pending state keep
    accumulating into one fused wave (``"fuse"``) or dispatch now
    (``"flush"``)?  Consults the same fitted table as ``algorithm="auto"``
    so the two decisions can never disagree about the cost model."""
    return (table or _t._active_table).lookup("fusion", nbytes, nprocs)


def choose_radix(
    nbytes: int,
    nprocs: int,
    *,
    combine_seconds: float = 0.0,
    cost_model: CostModel | None = None,
    table: DecisionTable | None = None,
    topology: str = "flat",
) -> int:
    """Fan-out for the doubling schedules (recursive-doubling allreduce,
    binomial scan) under ``algorithm="auto"``: the table's fitted radix
    for this rank band and payload size if :func:`fanout_admitted` lets
    it through, else 2.  Every radix returns the same bytes."""
    radix = (table or get_decision_table(topology)).lookup(
        "radix", nbytes, nprocs
    )
    if radix > 2 and fanout_admitted(
        radix, nbytes, nprocs, combine_seconds, cost_model
    ):
        return radix
    return 2


def radix_band(
    nbytes: int,
    nprocs: int,
    *,
    table: DecisionTable | None = None,
    topology: str = "flat",
) -> tuple[int | None, int | None]:
    """``(max_ranks, max_bytes)`` of the ``radix`` table entry that
    answers ``(nbytes, nprocs)`` — the provenance half of a schedule
    decision record (``None`` = unbounded)."""
    tbl = table or get_decision_table(topology)
    _, hi, _ = _band_span(tbl.radix, nbytes, nprocs)
    max_ranks = _band_for(tbl.radix, nprocs).max_ranks
    return (
        max_ranks if max_ranks < _UNBOUNDED else None,
        hi if hi < _UNBOUNDED else None,
    )


def cache_decisions(self: ScheduleCache) -> list[dict]:
    """:meth:`ScheduleCache.decisions <repro.mpi.schedule_cache.ScheduleCache.decisions>`."""
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
        if _t.RADIX_SCHEDULES.get(kind) == algorithm:
            band = radix_band(lo, nprocs, topology=topology)
            record["radix"] = radix
            record["radix_band"] = {
                "max_ranks": band[0], "max_bytes": band[1],
            }
        out.append(record)
    return out


def cache_stats(self: ScheduleCache) -> dict[str, int | float]:
    """:meth:`ScheduleCache.stats <repro.mpi.schedule_cache.ScheduleCache.stats>`."""
    total = self.hits + self.misses
    return {
        "entries": len(self._spans),
        "hits": self.hits,
        "misses": self.misses,
        "hit_rate": (self.hits / total) if total else 0.0,
    }
