"""The simultaneous binomial scan (``"binomial"``), the plan of every
scan job and of no other: its ``Schedule`` record names it, it is
imported the first time a scan runs, and ``repro.mpi.collectives``
still exports it."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.mpi.collectives import Plan, Recv, _charge_combine, _check_radix
from repro.mpi.op import Op
from repro.util.sizing import copy_for_transfer

if TYPE_CHECKING:
    from repro.mpi.collectives_cold import CollChannel

__all__ = ["scan_simultaneous_binomial_plan"]


def scan_simultaneous_binomial_plan(
    ch: CollChannel,
    value: Any,
    op: Op | Callable[[Any, Any], Any],
    *,
    exclusive: bool = False,
    identity: Callable[[], Any] | None = None,
    combine_seconds: float = 0.0,
    radix: int = 2,
) -> Plan:
    """Parallel prefix over ranks by simultaneous binomial (recursive
    doubling): ceil(log2 p) rounds, order-preserving.

    With ``radix = 2^j`` each level stands for ``j`` binomial rounds: a
    rank sends its window to up to ``radix - 1`` ranks above it and
    replays those rounds locally on the windows it receives, in the same
    association — ceil(log_radix p) levels, byte-identical results.

    For ``exclusive=True``, rank 0 returns ``identity()`` if an identity
    function is given, else ``None`` (the MPI_Exscan "undefined" slot —
    the paper's local-view abstraction requires the identity function
    precisely so that this slot is well-defined).
    """
    rank, size = ch.rank, ch.size
    _check_radix(radix)
    full = value
    partial = None if exclusive else value
    s = 1
    while s < size:
        # One level stands for the log2(radix) binomial rounds at
        # distances s, 2s, 4s, ...: every window those rounds would have
        # relayed is fetched from its origin at once.
        for i in range(1, radix):
            if rank + i * s >= size:
                break
            ch.send(rank + i * s, full)
        # wins[i] covers the s ranks ending at rank - i*s.
        wins = [full]
        for i in range(1, radix):
            if rank - i * s < 0:
                break
            wins.append((yield Recv(rank - i * s)))
        n = len(wins) - 1
        h = 1
        while h <= n:
            # Replay the round at distance h*s: first what the ranks
            # 2h*s, 4h*s, ... below me folded in it (their results reach
            # me in later rounds), then my own fold.
            for i in range(2 * h, n - h + 1, 2 * h):
                wins[i] = op(wins[i + h], wins[i])
                _charge_combine(ch, combine_seconds)
            theirs = wins[h]  # covers ranks [rank-2hs+1 .. rank-hs]
            # A combine may mutate its left operand (the Chapel/RSMPI
            # contract), and ``theirs`` feeds two combines — isolate one use.
            if partial is None:
                partial = theirs
                theirs_for_full = copy_for_transfer(theirs)
            else:
                theirs_for_full = copy_for_transfer(theirs)
                partial = op(theirs, partial)
                _charge_combine(ch, combine_seconds)
            full = op(theirs_for_full, full)
            _charge_combine(ch, combine_seconds)
            h <<= 1
        s *= radix
    if exclusive and partial is None:
        # rank 0's exclusive prefix: the identity, if one is known
        # (MPI_Exscan leaves it undefined; the paper's LOCAL_XSCAN takes
        # the identity function so that it is well-defined).
        partial = identity() if identity is not None else None
    return partial
