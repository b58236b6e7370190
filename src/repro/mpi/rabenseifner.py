"""Rabenseifner's allreduce (``"rabenseifner"``), the plan of a wide
combine and of no other job: its ``Schedule`` record names it, it is
imported the first time it runs, and ``repro.mpi.collectives`` still
exports it."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.mpi.collectives import (
    Plan, Recv, _as_vector, _charge_combine, _fold_in, _fold_out,
    _from_vector, _require_commutative, _segment_bounds, _unfolded,
)
from repro.mpi.op import Op

if TYPE_CHECKING:
    from repro.mpi.collectives_cold import CollChannel

__all__ = ["allreduce_rabenseifner_plan"]


def allreduce_rabenseifner_plan(
    ch: CollChannel,
    value,
    op: Op | Callable[[Any, Any], Any],
    *,
    combine_seconds: float = 0.0,
) -> Plan:
    """Rabenseifner-style all-reduce: recursive-*halving* reduce-scatter
    followed by recursive-*doubling* allgather over the same pairs.

    Moves ~``2 n (p-1)/p`` bytes per rank like the ring, but in
    ``2 log2(p)`` rounds instead of ``2(p-1)`` — the classic large-payload
    schedule when latency still matters.  Non-power-of-two sizes fold the
    first ``2*(p - pof2)`` ranks pairwise first (the MPICH approach).
    Segments are combined independently, so the operation must be
    **commutative and elementwise** over splittable NumPy payloads.
    """
    _require_commutative(op, "allreduce_rabenseifner")
    rank, size = ch.rank, ch.size
    arr, scalar = _as_vector(value)
    if size == 1:
        return _from_vector(arr, scalar)

    pof2 = 1 << (size.bit_length() - 1)
    rem = size - pof2
    arr, newrank = yield from _fold_in(ch, arr, op, rem, combine_seconds)
    if newrank >= 0:
        bounds = _segment_bounds(len(arr), pof2)
        slo, shi = 0, pof2  # my current segment block, in segment units
        steps: list[tuple[int, int, int]] = []  # (partner, sent_lo, sent_hi)
        dist = pof2 >> 1
        # Recursive halving reduce-scatter: each round exchanges half of
        # the current block with the partner and combines the kept half.
        while dist >= 1:
            partner = newrank ^ dist
            mid = (slo + shi) // 2
            if newrank < partner:  # I am in the lower half: keep low segs
                sent_lo, sent_hi = mid, shi
                keep = slice(int(bounds[slo]), int(bounds[mid]))
                slo, shi = slo, mid
            else:
                sent_lo, sent_hi = slo, mid
                keep = slice(int(bounds[mid]), int(bounds[shi]))
                slo, shi = mid, shi
            peer = _unfolded(partner, rem)
            ch.send(peer, arr[bounds[sent_lo] : bounds[sent_hi]])
            got = yield Recv(peer)
            if partner < newrank:
                arr[keep] = op(got, arr[keep])
            else:
                arr[keep] = op(arr[keep], got)
            _charge_combine(ch, combine_seconds)
            steps.append((partner, sent_lo, sent_hi))
            dist >>= 1
        # Recursive doubling allgather: replay the exchanges in reverse;
        # the partner of each round owns exactly the block sent away then.
        for partner, sent_lo, sent_hi in reversed(steps):
            peer = _unfolded(partner, rem)
            ch.send(peer, arr[bounds[slo] : bounds[shi]])
            got = yield Recv(peer)
            arr[bounds[sent_lo] : bounds[sent_hi]] = got
            slo, shi = min(slo, sent_lo), max(shi, sent_hi)

    # Un-fold: odd folded ranks forward the full result to their pair.
    arr = yield from _fold_out(ch, arr, rem)
    return _from_vector(arr, scalar)
