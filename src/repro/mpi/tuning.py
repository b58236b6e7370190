"""Cost-model-tuned collective algorithm selection.

The best combine-phase schedule depends on payload size, rank count,
commutativity and whether the payload can be segmented — exactly the
decision space Träff's reduce-scatter/allreduce optimality analysis maps
out.  This module makes the choice automatic: the communicator's
``algorithm="auto"`` default calls :func:`choose_allreduce` /
:func:`choose_reduce` / :func:`choose_scan`, which look the answer up in
a :class:`DecisionTable` of payload-byte crossover thresholds per rank
band.

The shipped :data:`DEFAULT_TABLE` was **fitted by simulation** against
the default :class:`~repro.runtime.costmodel.CostModel` (run
``python -m repro tune`` to re-fit, e.g. after changing the cost model;
``load_decision_table``/``set_decision_table`` install the result).
Fitting simulates every candidate on every grid point and derives the
thresholds from the measured winners — there is no closed-form shortcut,
matching the repo's "costs emerge from messages" principle.

Safety invariants, enforced ahead of the table (:func:`constant_span`)
so a bad fit can never produce a wrong answer, and derived from the
properties each schedule declares in the registry
(:data:`repro.mpi.collectives.SCHEDULES`) rather than restated here:

* non-commutative operations are only ever routed to schedules declared
  ``order_preserving``;
* schedules declared ``segments`` are only chosen for *splittable*
  payloads: 1-D NumPy arrays with at least one element per rank
  combined by an op that declares itself ``elementwise``
  (:class:`repro.mpi.op.Op`);
* a fan-out above 2 for the doubling schedules (the ``radix``
  dimension) is only admitted where the cost model's answer is exact —
  payloads whose wire time fits inside one send overhead — and where
  its extra serial folds cost less than the rounds it saves
  (:func:`fanout_admitted`).  Every radix returns the same bytes, so
  this pair guards speed only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from repro import _lazy
from repro.mpi import collectives as _coll
from repro.runtime.costmodel import CostModel

__all__ = [
    "TUNED_KINDS",
    "candidates",
    "FUSION_CANDIDATES",
    "RADIX_CANDIDATES",
    "RADIX_SCHEDULES",
    "Band",
    "DecisionTable",
    "DEFAULT_TABLE",
    "choose_allreduce",
    "choose_reduce",
    "choose_scan",
    "choose_fusion",
    "choose_radix",
    "fanout_admitted",
    "radix_band",
    "constant_span",
    "fusion_flush_bytes",
    "is_splittable",
    "fit_decision_table",
    "get_decision_table",
    "set_decision_table",
    "load_decision_table",
    "table_generation",
]

#: The collective kinds ``algorithm="auto"`` decides between schedules
#: for — one table dimension each.
TUNED_KINDS = ("allreduce", "reduce", "scan")


def candidates(kind: str, *, fabric: bool = False) -> tuple[str, ...]:
    """The schedules ``"auto"`` may pick for ``kind``, read off the
    registry: every resumable one (auto's answer must serve the blocking
    and the ``i*`` entry point alike), those that need the node
    partition only with ``fabric=True`` — they enter a table only
    through a fit that measured them on a multi-tier fabric."""
    return tuple(
        s.name for s in _coll.schedules(kind)
        if s.resumable and (fabric or not s.groups)
    )


#: "fusion" is a meta-decision rather than a schedule: should a
#: ReductionBucket holding this many pending payload bytes merge them
#: into one shared recursive-doubling wave ("fuse"), or dispatch them as
#: individual auto-tuned collectives ("flush")?  Fusing halves the
#: latency rounds; flushing lets large payloads keep their
#: bandwidth-optimal schedules.
FUSION_CANDIDATES = ("fuse", "flush")

#: "radix" is the fan-out of the two latency-bound doubling schedules
#: (recursive-doubling allreduce, simultaneous-binomial scan): radix
#: 2^j does j rounds' worth of exchange in one level, trading messages
#: for rounds.  Results are byte-identical at every radix (the local
#: fold replays the doubling rounds' association), so the fitted value
#: can change speed, never results.  Table entries are the integers
#: themselves.
RADIX_CANDIDATES = (2, 4, 8, 16)

#: The doubling schedule of each collective kind — where a radix applies.
RADIX_SCHEDULES = {
    kind: s.name
    for kind in TUNED_KINDS for s in _coll.schedules(kind) if s.radix
}

#: Every dimension of a :class:`DecisionTable`, in serialization order.
_DIMENSIONS = TUNED_KINDS + ("fusion", "radix")

_UNBOUNDED = 1 << 62  # "no upper limit" sentinel for thresholds


@dataclass(frozen=True)
class Band:
    """One rank band of a decision table.

    Applies to communicators with ``nprocs <= max_ranks`` (bands are kept
    sorted ascending; the last band catches everything).  ``cutoffs`` is
    an ascending sequence of ``(max_bytes, algorithm)`` pairs: the first
    entry whose ``max_bytes`` is >= the payload size wins.  (In the
    ``radix`` dimension the "algorithm" is the integer fan-out.)
    """

    max_ranks: int
    cutoffs: tuple[tuple[int, str | int], ...]

    def lookup(self, nbytes: int) -> str | int:
        for max_bytes, algorithm in self.cutoffs:
            if nbytes <= max_bytes:
                return algorithm
        return self.cutoffs[-1][1]


# Conservative fusion fallback for tables fitted before the fusion
# dimension existed: fuse small pending buckets, flush past 16 KiB.
_FUSION_FALLBACK_BANDS = (
    Band(_UNBOUNDED, ((16384, "fuse"), (_UNBOUNDED, "flush"))),
)

# Radix fallback for tables fitted before the radix dimension existed:
# plain doubling everywhere, so a loaded (e.g. per-topology) table
# changes nothing until it is re-fitted.
_RADIX_FALLBACK_BANDS = (Band(_UNBOUNDED, ((_UNBOUNDED, 2),)),)


def _band_for(bands: tuple[Band, ...], nprocs: int) -> Band:
    """The first band covering ``nprocs`` (the last one catches all)."""
    for band in bands:
        if nprocs <= band.max_ranks:
            return band
    return bands[-1]


@dataclass(frozen=True)
class DecisionTable:
    """Byte-threshold decision tables for the tuned collectives, plus the
    reduction-fusion crossover shared with :mod:`repro.core.fusion`."""

    allreduce: tuple[Band, ...]
    reduce: tuple[Band, ...]
    scan: tuple[Band, ...]
    source: str = "default"
    fusion: tuple[Band, ...] = _FUSION_FALLBACK_BANDS
    radix: tuple[Band, ...] = _RADIX_FALLBACK_BANDS
    #: Fabric signature this table was fitted against
    #: (:attr:`repro.runtime.fabric.Topology.signature`).  ``"flat"``
    #: tables are the process-wide default; non-flat tables install into
    #: a per-signature registry consulted only by communicators whose
    #: world runs on that fabric.
    topology: str = "flat"

    def lookup(self, kind: str, nbytes: int, nprocs: int) -> str | int:
        return _band_for(getattr(self, kind), nprocs).lookup(nbytes)

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
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
            "source": self.source,
            "topology": self.topology,
            **{kind: enc(getattr(self, kind)) for kind in _DIMENSIONS},
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DecisionTable":
        """Rebuild a table from :meth:`to_dict` output, checking every
        entry against what its dimension can actually run (registered
        schedule names, a power-of-two radix) — a typo fails here, naming
        the kind, band and entry, not mid-job when a payload first lands
        in that band.  Sections that are not a dimension of the table
        (the ``"kernel"`` section of tables written before it was
        removed) are ignored."""

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


# ---------------------------------------------------------------------------
# The shipped default table.
#
# Output of fit_decision_table() against the default CostModel()
# (5 us latency, 500 MB/s, 1 us send/recv overheads) over ranks
# {4, 8, 16, 32} and payloads 8 B .. 2 MiB; thresholds sit at the
# geometric midpoint between the bracketing grid points of each measured
# crossover.  Re-fit with `python -m repro tune`.
# ---------------------------------------------------------------------------

DEFAULT_TABLE = DecisionTable(
    allreduce=(
        Band(8, ((16384, "recursive_doubling"), (_UNBOUNDED, "rabenseifner"))),
        Band(
            _UNBOUNDED,
            ((4096, "recursive_doubling"), (_UNBOUNDED, "rabenseifner")),
        ),
    ),
    reduce=(
        Band(4, ((65536, "binomial"), (_UNBOUNDED, "pipelined_ring"))),
        Band(
            _UNBOUNDED,
            ((262144, "binomial"), (_UNBOUNDED, "pipelined_ring")),
        ),
    ),
    scan=(
        # The fitter rejects the chain at every fitted rank count: its
        # p-1 serialized hops lose to the binomial's log2(p) rounds at
        # every payload size.  It stays available as an explicit
        # algorithm (and wins trivially at p == 2, handled in
        # _forced_schedule before the table is consulted).
        Band(_UNBOUNDED, ((_UNBOUNDED, "binomial"),)),
    ),
    fusion=(
        # The fitter finds the same crossover at every fitted rank
        # count: below it, halving the latency rounds by sharing one
        # recursive-doubling wave wins; above it, the individual
        # reductions' bandwidth-optimal schedules (Rabenseifner) beat
        # the fused wave's log2(p) full-payload hops.
        Band(_UNBOUNDED, ((16384, "fuse"), (_UNBOUNDED, "flush"))),
    ),
    radix=(
        # Under LogGP with o << L a rank injects several messages inside
        # one latency, so fewer, wider levels beat log2(p) rounds — up to
        # the point where a level's (k-1)(o_s + o_r) outgrows the
        # latency it hides: 8 ranks finish in one 8-way level (14.0 us
        # vs 21.0), 16 in two 4-way levels (18.0 vs 28.1; 8+2 is 21.0,
        # one 16-way level 30.0), 32 in 8+4 (23.0 vs 35.1).  Every band
        # ends at the byte guard of fanout_admitted() (500 B here).
        Band(4, ((500, 4), (_UNBOUNDED, 2))),
        Band(8, ((500, 8), (_UNBOUNDED, 2))),
        Band(16, ((500, 4), (_UNBOUNDED, 2))),
        Band(_UNBOUNDED, ((500, 8), (_UNBOUNDED, 2))),
    ),
    source="default (fitted against CostModel() defaults)",
)

_active_table: DecisionTable = DEFAULT_TABLE

#: Per-fabric tables keyed by topology signature ("multi_node:4", ...).
#: A communicator whose world runs on a non-flat fabric consults this
#: registry first and falls back to the flat active table — so the
#: "hierarchical" schedule is never auto-chosen until a table fitted
#: for that fabric has been installed (``python -m repro tune
#: --topology ...``).
_topology_tables: dict[str, DecisionTable] = {}

#: Bumped on every table install; schedule caches key their validity on
#: it so a ``set_decision_table``/``load_decision_table`` invalidates
#: every cached span without the caches having to subscribe anywhere.
_table_generation: int = 0


def table_generation() -> int:
    """Monotonic counter identifying the active table installation."""
    return _table_generation


def get_decision_table(topology: str = "flat") -> DecisionTable:
    """The table ``algorithm="auto"`` consults for a world on fabric
    ``topology`` (a :attr:`~repro.runtime.fabric.Topology.signature`).
    Falls back to the flat active table when no per-fabric table has
    been installed."""
    if topology != "flat":
        table = _topology_tables.get(topology)
        if table is not None:
            return table
    return _active_table


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
    global _active_table, _table_generation
    if topology is None:
        topology = "flat" if table is None else table.topology
    _table_generation += 1
    if topology == "flat":
        previous: DecisionTable | None = _active_table
        _active_table = DEFAULT_TABLE if table is None else table
        return previous
    if table is None:
        return _topology_tables.pop(topology, None)
    prev = _topology_tables.get(topology)
    _topology_tables[topology] = table
    return prev


def load_decision_table(path) -> DecisionTable:
    """Load a table emitted by ``python -m repro tune`` and install it
    (under its own topology signature).  ``path`` is a ``str`` or
    :class:`~pathlib.Path`."""
    import json
    from pathlib import Path

    table = DecisionTable.from_dict(json.loads(Path(path).read_text()))
    set_decision_table(table)
    return table


# ---------------------------------------------------------------------------
# Choice functions (the communicator's "auto" entry points)
# ---------------------------------------------------------------------------


def is_splittable(value: Any, op: Any, nprocs: int) -> bool:
    """True when ``value`` may be segmented across ranks: a 1-D NumPy
    array with at least one element per rank whose op declares itself
    elementwise."""
    return (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and value.shape[0] >= nprocs
        and bool(getattr(op, "elementwise", False))
    )


def _guard(kind: str) -> tuple[bool, bool, str]:
    """``(needs_commutative, needs_splittable, fallback)``: what every
    flat candidate of ``kind`` being admissible asks of an operand — one
    that is not order-preserving needs a commutative op, one that
    segments a splittable payload — and the order-preserving,
    non-segmenting schedule that runs when the operand falls short."""
    flat = [_coll.SCHEDULES[kind][name] for name in candidates(kind)]
    return (
        not all(s.order_preserving for s in flat),
        any(s.segments for s in flat),
        next(s.name for s in flat if s.order_preserving and not s.segments),
    )


#: Read off the registry once; the lookup path only tests three flags.
_GUARDS = {kind: _guard(kind) for kind in TUNED_KINDS}


def _forced_schedule(
    kind: str, nprocs: int, commutative: bool, splittable: bool
) -> str | None:
    """The schedule the safety guards impose on this operand, or ``None``
    when the table may decide — the one statement of the guards.  A row
    may name any flat candidate, so the table is consulted only when
    every one of them is admissible (:func:`_guard`) and the world is
    larger than two ranks (no row is fitted below four); otherwise the
    kind's fallback runs — except that two ranks scan down the chain,
    whose single combine beats the binomial's two."""
    if nprocs == 2 and kind == _coll.SCAN_CHAIN.kind:
        return _coll.SCAN_CHAIN.name
    needs_commutative, needs_splittable, fallback = _GUARDS[kind]
    if (
        nprocs <= 2
        or (needs_commutative and not commutative)
        or (needs_splittable and not splittable)
    ):
        return fallback
    return None


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


def _band_span(
    bands: tuple[Band, ...], nbytes: int, nprocs: int
) -> tuple[int, int, str]:
    """The maximal ``[lo, hi]`` byte interval containing ``nbytes`` over
    which the banded lookup is constant, plus the algorithm it returns."""
    chosen = _band_for(bands, nprocs)
    lo = 0
    for max_bytes, algorithm in chosen.cutoffs:
        if nbytes <= max_bytes:
            return lo, max_bytes, algorithm
        lo = max_bytes + 1
    # Past the last threshold: Band.lookup falls through to the last
    # algorithm, so the span is unbounded above.
    return lo, _UNBOUNDED, chosen.cutoffs[-1][1]


def constant_span(
    kind: str,
    nbytes: int,
    nprocs: int,
    commutative: bool = True,
    splittable: bool = False,
    *,
    table: DecisionTable | None = None,
    topology: str = "flat",
) -> tuple[int, int, str]:
    """``(lo, hi, algorithm)``: the byte interval around ``nbytes`` on
    which :func:`choose_allreduce`/:func:`choose_reduce`/:func:`choose_scan`
    (per ``kind``) is constant, and the algorithm it picks there.

    This is what makes an external schedule cache *exact*: caching the
    whole span instead of the point answer means a cached hit anywhere in
    ``[lo, hi]`` returns precisely what the choice function would have —
    the cache can accelerate lookups but never move a crossover.
    The safety guards (small worlds, non-commutative/non-splittable
    operands) are size-independent, so they yield the full ``[0, ∞)``
    span.
    """
    if kind in _GUARDS:
        forced = _forced_schedule(kind, nprocs, commutative, splittable)
        if forced is not None:
            return 0, _UNBOUNDED, forced
    elif kind not in _DIMENSIONS:
        raise ValueError(f"unknown tuning kind {kind!r}")
    tbl = table or get_decision_table(topology)
    return _band_span(getattr(tbl, kind), nbytes, nprocs)


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
    return (table or _active_table).lookup("fusion", nbytes, nprocs)


def _exchange_seconds(
    k: int, o_s: float, o_r: float, wire: float, fold: float
) -> float:
    """Closed-form time of one ``k``-way level entered by all members at
    once: ``k - 1`` sends back to back, the ``k - 1`` receives in arrival
    order (the i-th arrives ``i * o_s + wire`` after the level began),
    then ``k - 1`` folds.  ``k = 2`` is one doubling round."""
    t = (k - 1) * o_s
    for i in range(1, k):
        t = max(t, i * o_s + wire) + o_r
    return t + (k - 1) * fold


@lru_cache(maxsize=256)
def _fold_budget(
    radix: int, nprocs: int, o_s: float, o_r: float, latency: float
) -> float:
    """Largest ``combine_seconds`` at which ``radix``-way levels still
    finish no later than the doubling rounds they replace.

    Each level's ``k - 1`` folds are serial where doubling spreads
    ``log2 k`` of them over as many rounds; the rounds saved pay for the
    difference only while a fold is cheap.  The closed form holds for
    power-of-two groups, where every rank enters each level together
    (elsewhere the fold-in overlaps doubling's first round and the
    baseline is faster than any formula this simple), so other sizes
    get no budget.  The payload's byte time is left out of the wire —
    the byte guard keeps it under one send overhead, and a longer wire
    only widens the saving — so the budget depends on nothing the
    schedule cache does not key on.
    """
    if nprocs & (nprocs - 1):
        return 0.0
    rounds = nprocs.bit_length() - 1
    levels = _coll.fanout_levels(nprocs, radix)
    extra_folds = sum(k - 1 for k in levels) - rounds
    if extra_folds <= 0:
        return math.inf
    saved = rounds * _exchange_seconds(2, o_s, o_r, latency, 0.0) - sum(
        _exchange_seconds(k, o_s, o_r, latency, 0.0) for k in levels
    )
    return saved / extra_folds


_DEFAULT_COST = CostModel()


def _wire_fits_overhead(nbytes: int, cm: CostModel) -> bool:
    # The relative epsilon keeps the boundary payload (500 B at 500 MB/s
    # and 1 us) on the admitted side of float rounding.
    return nbytes * cm.byte_time <= cm.send_overhead * (1.0 + 1e-9)


def _fanout_byte_limit(cm: CostModel) -> int:
    """Largest payload the byte guard of :func:`fanout_admitted` lets
    fan out under ``cm``."""
    if cm.byte_time <= 0.0:
        return _UNBOUNDED
    n = int(cm.send_overhead / cm.byte_time) + 1
    while n > 0 and not _wire_fits_overhead(n, cm):
        n -= 1
    return n


def fanout_admitted(
    radix: int,
    nbytes: int,
    nprocs: int,
    combine_seconds: float = 0.0,
    cost_model: CostModel | None = None,
) -> bool:
    """May a doubling schedule fan out ``radix`` ways for this call?

    Two guards, kept out of the table because the simulator that fits it
    cannot see what they protect against:

    * **bytes** — ``radix - 1`` sends leave back to back and the model
      charges each only its send overhead; nothing serialises their
      bytes through the NIC.  That is exact only while injection is
      overhead-bound, ``nbytes * byte_time <= send_overhead`` (500 B
      under the default model); beyond it concurrent large sends would
      look free, so fan-out is refused.
    * **folds** — with ``combine_seconds > 0`` the ``radix - 1`` serial
      folds of a level must cost no more than the rounds it saves
      (:func:`_fold_budget`; decidable in closed form for power-of-two
      groups only, plain doubling otherwise).
    """
    cm = cost_model if cost_model is not None else _DEFAULT_COST
    if not _wire_fits_overhead(nbytes, cm):
        return False
    if combine_seconds <= 0.0:
        return True
    return combine_seconds <= _fold_budget(
        radix, nprocs, cm.send_overhead, cm.recv_overhead, cm.latency
    )


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


def fusion_flush_bytes(nprocs: int, *, table: DecisionTable | None = None) -> int:
    """The pending-byte threshold at which :func:`choose_fusion` flips
    from "fuse" to "flush" for ``nprocs`` ranks — the auto-flush
    watermark of :class:`repro.core.fusion.ReductionBucket`."""
    band = _band_for((table or _active_table).fusion, nprocs)
    threshold = 0
    for max_bytes, algorithm in band.cutoffs:
        if algorithm == "fuse":
            threshold = max_bytes
    return threshold


# The fitter (simulation grids) is only ever wanted by ``python -m repro
# tune`` and the tests that re-fit; it is imported on first use so
# looking a decision up does not compile it.
__getattr__, __dir__, _ = _lazy.attach(__name__, {
    "tuning_fit": (
        "fit_decision_table", "DEFAULT_PAYLOAD_GRID", "DEFAULT_RANK_GRID"
    ),
})
