"""Collective algorithms over point-to-point channels.

Every collective is built from point-to-point messages on a
:class:`~repro.mpi.collectives_cold.CollChannel`, so its simulated cost
*emerges* from the actual message pattern rather than from a
closed-form formula — the property that lets the figure benchmarks
reproduce the paper's performance shapes honestly.

This module holds the :class:`Schedule` registry of every algorithm
and the plan every reduce job runs: recursive doubling allreduce with
the MPICH non-power-of-two fold-in, order-preserving throughout, at a
power-of-two ``radix`` — each level fans out to ``radix - 1`` peers and
folds locally in the doubling rounds' own association, so the radix
moves rounds and message counts, never bytes of the result
(``algorithm="auto"`` fits it).

Every other plan lives elsewhere and its record names it: the module is
imported the first time the plan runs, and each name also resolves
here.  The two other plans ``auto`` picks on a flat fabric have a
module each — :mod:`repro.mpi.scan_binomial` (the simultaneous binomial
scan, radix as above) and :mod:`repro.mpi.rabenseifner`
(reduce-scatter + allgather for large splittable payloads); the rest
(the reduce trees and ring, the ring and hierarchical allreduce, the
linear-chain scan, the data-movement collectives) are in
:mod:`repro.mpi.collectives_cold`.

All rank arguments are *group* ranks; the channel translates to world
ranks.  Non-commutative operations always receive the lower-rank operand
as the left argument of ``op``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro import _lazy
from repro.errors import CommunicatorError
from repro.mpi.op import Op
from repro.util.record import Record

if TYPE_CHECKING:
    from repro.mpi.collectives_cold import CollChannel

#: The plans (and channel types) of :mod:`repro.mpi.collectives_cold`.
_COLD = (
    "CollChannel",
    "SubgroupChannel",
    "reduce_binomial_plan",
    "reduce_kary_available",
    "reduce_ring_pipelined_plan",
    "allreduce_ring_plan",
    "allreduce_hierarchical_plan",
    "reduce_scatter_ring_plan",
    "bcast_binomial_plan",
    "scan_linear_chain_plan",
    "gather_binomial_plan",
    "scatter_binomial_plan",
    "allgather_plan",
    "barrier_dissemination_plan",
    "alltoall_pairwise_plan",
)

__all__ = [
    "Recv",
    "run_plan",
    "Schedule",
    "SCHEDULES",
    "schedule",
    "schedules",
    "REMOVED",
    "REDUCE_KARY",
    "SCAN_CHAIN",
    "allreduce_recursive_doubling_plan",
    "fanout_levels",
    "allreduce_rabenseifner_plan",
    "scan_simultaneous_binomial_plan",
    *_COLD,
]


def _charge_combine(ch: CollChannel, seconds: float) -> None:
    if seconds > 0.0:
        ch.charge(seconds, "combine")


def _require_commutative(op: Any, schedule: str) -> None:
    if isinstance(op, Op) and not op.commutative:
        raise CommunicatorError(
            f"{schedule} requires a commutative op, got {op!r}"
        )


class _InPlace(Record, frozen=True):
    """MPI_IN_PLACE for the payload-segmenting schedules: ``buf`` is a
    1-D array the caller owns and gives up, reduced in place instead of
    in a private copy.  Only the global-view driver hands one over; the
    result may still come back in a fresh array (the fold-out of
    non-power-of-two groups), so the caller writes back whatever does
    not share ``buf``'s memory."""

    __slots__ = ("buf",)  # np.ndarray


def _as_vector(value: Any):
    """``(arr, scalar)``: a private 1-D-indexable copy of ``value`` for
    the payload-segmenting schedules (an :class:`_InPlace` hand-off's
    buffer itself); a 0-d input becomes one element and is handed back
    as a scalar by :func:`_from_vector`."""
    if isinstance(value, _InPlace):
        return value.buf, False
    arr = np.array(value, copy=True)
    scalar = arr.ndim == 0
    return (arr.reshape(1) if scalar else arr), scalar


def _from_vector(arr, scalar: bool):
    return arr[0] if scalar else arr


def _segment_bounds(n: int, parts: int):
    """Index bounds splitting ``n`` elements into ``parts`` segments."""
    return np.linspace(0, n, parts + 1).astype(int)


# --------------------------------------------------------------------------
# Resumable plans
# --------------------------------------------------------------------------
#
# Every collective below has one form: a ``*_plan`` generator that
# *yields* a :class:`Recv` marker wherever the schedule needs one
# incoming message (sends stay eager — they are fire-and-forget in this
# runtime).  A blocking call drives the plan with :func:`run_plan`; a
# nonblocking one hands the suspended generator to a ``Request`` and a
# progress engine resumes it one message at a time, interleaving the
# rounds of several outstanding collectives on the virtual clock.  Both
# perform *exactly* the same sends, receives, combines, and charges in
# the same program order, so they are bit-identical in results and
# virtual times.  The :class:`Schedule` registry at the bottom of the
# file is where each plan's name and properties are declared.
#
# The one exception is :func:`reduce_kary_available`: combining children
# in the order their messages become available needs their envelopes up
# front, which a one-message-at-a-time plan cannot express.  It stays a
# blocking function, registered with ``resumable=False``.


class Recv(Record, frozen=True):
    """Yielded by a collective plan when its next step needs one message
    from group rank ``source``; the driver resumes the plan with the
    received payload."""

    __slots__ = ("source",)  # int


Plan = Generator[Recv, Any, Any]


def run_plan(ch: CollChannel, plan: Plan) -> Any:
    """Drive a collective plan to completion with blocking receives and
    return the plan's result."""
    try:
        step = next(plan)
        while True:
            step = plan.send(ch.recv(step.source))
    except StopIteration as stop:
        return stop.value


# --------------------------------------------------------------------------
# Reductions
# --------------------------------------------------------------------------


def _check_radix(radix: int) -> None:
    if radix < 2 or radix & (radix - 1):
        raise CommunicatorError(
            f"collective radix must be a power of two >= 2, got {radix!r}"
        )


def fanout_levels(size: int, radix: int) -> list[int]:
    """Per-level group sizes of the doubling allreduce over ``size``
    ranks (a power of two) at fan-out ``radix``: full ``radix``-way
    levels first, the leftover power of two last (8 ranks at radix 4 ->
    ``[4, 2]``)."""
    _check_radix(radix)
    levels = []
    while size > 1:
        levels.append(min(radix, size))
        size //= levels[-1]
    return levels


# The MPICH treatment of non-power-of-two groups, shared by recursive
# doubling and Rabenseifner: the first ``2 * rem`` ranks fold pairwise
# (even into odd) so a power of two remains, the core schedule runs over
# the folded ranks, and the odd ranks hand the result back afterwards.


def _fold_in(
    ch: CollChannel, partial: Any, op, rem: int, combine_seconds: float
) -> Plan:
    """Returns ``(partial, newrank)``; ``newrank`` is the rank's index
    among the folded ranks, ``-1`` for the evens that sit the core out."""
    rank = ch.rank
    if rank >= 2 * rem:
        return partial, rank - rem
    if rank % 2 == 0:
        ch.send(rank + 1, partial)
        return partial, -1
    theirs = yield Recv(rank - 1)
    partial = op(theirs, partial)  # lower rank on the left
    _charge_combine(ch, combine_seconds)
    return partial, rank // 2


def _unfolded(nr: int, rem: int) -> int:
    """Translate a folded rank back to its group rank."""
    return nr * 2 + 1 if nr < rem else nr + rem


def _fold_out(ch: CollChannel, partial: Any, rem: int) -> Plan:
    """Send results back to the folded-out even ranks."""
    rank = ch.rank
    if rank < 2 * rem:
        if rank % 2 == 0:
            partial = yield Recv(rank + 1)
        else:
            ch.send(rank - 1, partial)
    return partial


def allreduce_recursive_doubling_plan(
    ch: CollChannel, value: Any, op: Op | Callable[[Any, Any], Any],
    *, combine_seconds: float = 0.0, radix: int = 2,
) -> Plan:
    """All-reduce by recursive doubling with the MPICH fold-in step for
    non-power-of-two sizes.  Order-preserving (non-commutative safe).

    ``radix`` (a power of two) is the fan-out of each level: a rank
    exchanges partials with the ``radix - 1`` other members of its digit
    group at once and folds them locally in the association the
    ``log2(radix)`` doubling rounds would have produced, so the result is
    byte-identical at every radix — only rounds (fewer) and messages
    (more) change.  The default 2 is classic recursive doubling.
    """
    rank, size = ch.rank, ch.size
    if size == 1:
        return value
    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    levels = fanout_levels(pof2, radix)
    partial, newrank = yield from _fold_in(
        ch, value, op, rem, combine_seconds
    )
    if newrank >= 0:
        stride = 1
        for k in levels:
            # One level: the k ranks differing only in this base-k digit
            # exchange partials all-to-all.  Rotation order makes my i-th
            # receive the sender's i-th send, i.e. arrival order.
            digit = newrank // stride % k
            base = newrank - digit * stride
            vals = [None] * k
            vals[digit] = partial
            for i in range(1, k):
                peer = base + (digit + i) % k * stride
                ch.send(_unfolded(peer, rem), partial)
            for i in range(1, k):
                e = (digit - i) % k
                vals[e] = yield Recv(_unfolded(base + e * stride, rem))
            # Fold in exactly the association log2(k) doubling rounds
            # would have produced: a balanced binary tree in digit order,
            # lower rank on the left.
            h = 1
            while h < k:
                for i in range(0, k, 2 * h):
                    vals[i] = op(vals[i], vals[i + h])
                    _charge_combine(ch, combine_seconds)
                h <<= 1
            partial = vals[0]
            stride *= k
    return (yield from _fold_out(ch, partial, rem))


# --------------------------------------------------------------------------
# The schedule registry
# --------------------------------------------------------------------------
#
# One record per algorithm: the only place in ``repro.mpi`` (besides the
# fitted cutoffs of ``tuning.DEFAULT_TABLE``) where an algorithm's name
# or a property of it is written down.  The communicator's dispatch and
# error messages, the tuner's candidate lists and safety guards, the
# fitter, the schedule cache, the benchmarks and the identity grids all
# read it, so landing a new algorithm is one plan function plus one line
# here.


class Schedule(Record, frozen=True):
    """One registered algorithm for one collective ``kind``.

    * ``name`` — the ``algorithm=`` name (for kinds with a single
      schedule, just its name in docs and spans);
    * ``plan`` — ``plan(ch, *operands, **options)`` -> :data:`Plan`;
    * ``order_preserving`` — lower ranks are always the left operand:
      safe for non-commutative operations;
    * ``segments`` — splits the payload and combines the pieces
      independently: needs a splittable operand
      (``tuning.is_splittable``);
    * ``radix`` — ``plan`` takes ``radix=``, the fitted fan-out of
      ``"auto"``;
    * ``groups`` — ``plan`` takes ``groups=``, the node partition; a
      candidate for ``"auto"`` only in tables fitted on a non-flat
      fabric;
    * ``resumable`` — ``plan`` is a generator a ``Request`` can suspend;
      ``False`` marks a blocking function (no ``i*`` form, never chosen
      by ``"auto"``).

    A plan kept in another module is given by its function name;
    :attr:`plan` imports it the first time it is read and keeps it.
    """

    __slots__ = (
        "kind", "name", "_plan", "order_preserving", "segments", "radix",
        "groups", "resumable",
    )

    def __init__(
        self,
        kind: str,
        name: str,
        plan: Callable[..., Any] | str,
        order_preserving: bool = True,
        segments: bool = False,
        radix: bool = False,
        groups: bool = False,
        resumable: bool = True,
    ):
        Record.__init__(
            self, kind, name, order_preserving, segments, radix, groups,
            resumable,
        )
        object.__setattr__(self, "_plan", plan)

    @property
    def plan(self) -> Callable[..., Any]:
        plan = self._plan
        if plan.__class__ is str:
            plan = __getattr__(plan)  # this module's lazy export
            object.__setattr__(self, "_plan", plan)
        return plan

    def __reduce__(self):
        return (
            Schedule,
            (self.kind, self.name, self._plan, *self._values()[2:]),
        )


#: Names that used to be registered, so a stale call site or table is
#: told why its schedule is gone rather than just that it is unknown.
REMOVED = {
    ("scan", "hierarchical"): (
        "removed: the hierarchical scan lost to the flat binomial scan on "
        "all 27 recorded cells, 0.77-0.99x; see EXPERIMENTS.md EX-HIER"
    ),
}

REDUCE_KARY = Schedule(
    "reduce", "kary", "reduce_kary_available",
    order_preserving=False, resumable=False,
)
SCAN_CHAIN = Schedule("scan", "chain", "scan_linear_chain_plan")

#: ``SCHEDULES[kind][name]``; the first entry of a kind is its
#: order-preserving, non-segmenting default.
SCHEDULES: dict[str, dict[str, Schedule]] = {}
for _s in (
    Schedule("reduce", "binomial", "reduce_binomial_plan"),
    Schedule(
        "reduce", "pipelined_ring", "reduce_ring_pipelined_plan", segments=True
    ),
    REDUCE_KARY,
    Schedule(
        "allreduce", "recursive_doubling", allreduce_recursive_doubling_plan,
        radix=True,
    ),
    Schedule(
        "allreduce", "ring", "allreduce_ring_plan",
        order_preserving=False, segments=True,
    ),
    Schedule(
        "allreduce", "rabenseifner", "allreduce_rabenseifner_plan",
        order_preserving=False, segments=True,
    ),
    Schedule(
        "allreduce", "hierarchical", "allreduce_hierarchical_plan", groups=True
    ),
    Schedule("scan", "binomial", "scan_simultaneous_binomial_plan", radix=True),
    SCAN_CHAIN,
    Schedule(
        "reduce_scatter", "ring", "reduce_scatter_ring_plan",
        order_preserving=False, segments=True,
    ),
    Schedule("bcast", "binomial", "bcast_binomial_plan"),
    Schedule("gather", "binomial", "gather_binomial_plan"),
    Schedule("scatter", "binomial", "scatter_binomial_plan"),
    Schedule("allgather", "gather_bcast", "allgather_plan"),
    Schedule("alltoall", "pairwise", "alltoall_pairwise_plan"),
    Schedule("barrier", "dissemination", "barrier_dissemination_plan"),
):
    SCHEDULES.setdefault(_s.kind, {})[_s.name] = _s
del _s


def schedules(kind: str) -> tuple[Schedule, ...]:
    """Every registered schedule of ``kind``, default first."""
    return tuple(SCHEDULES[kind].values())


def schedule(
    kind: str, name: str | None = None, *, caller: str | None = None,
    resumable: bool = False,
) -> Schedule:
    """The record for ``algorithm=name`` of ``kind`` (``None``: the
    kind's default).  Unknown names — and, with ``resumable=True``,
    names without a plan form — raise a :class:`CommunicatorError`
    listing what ``caller`` (default: the kind) could have asked for."""
    table = SCHEDULES[kind]
    if name is None:
        return next(iter(table.values()))
    found = table.get(name)
    if found is not None and (found.resumable or not resumable):
        return found
    names = ["auto"] + [
        s.name for s in table.values() if s.resumable or not resumable
    ]
    choices = ", ".join(repr(n) for n in names[:-1]) + f" or {names[-1]!r}"
    problem = (
        f"unknown {caller or kind} algorithm {name!r}" if found is None
        else f"{caller or kind} does not support algorithm {name!r}"
    )
    if (kind, name) in REMOVED:
        problem += f" ({REMOVED[kind, name]})"
    raise CommunicatorError(f"{problem}; choose {choices}")


__getattr__, __dir__, _ = _lazy.attach(__name__, {
    "collectives_cold": _COLD,
    "rabenseifner": ("allreduce_rabenseifner_plan",),
    "scan_binomial": ("scan_simultaneous_binomial_plan",),
})
