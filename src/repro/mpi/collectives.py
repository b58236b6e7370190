"""Collective algorithms over point-to-point channels.

Every collective is built from point-to-point messages on a
:class:`CollChannel`, so its simulated cost *emerges* from the actual
message pattern rather than from a closed-form formula — the property
that lets the figure benchmarks reproduce the paper's performance shapes
honestly.

Algorithm choices mirror common MPI implementations:

* reductions: order-preserving binomial tree (valid for non-commutative
  operations); optional k-ary "combine-as-available" tree for commutative
  operations (the paper's §1 fan-out observation); a segmented/pipelined
  ring for large splittable vectors (order-preserving);
* allreduce: recursive doubling with the MPICH non-power-of-two fold-in,
  order-preserving throughout; bandwidth-optimal ring and Rabenseifner
  (reduce-scatter + allgather) schedules for large splittable payloads;
* scan/exscan: simultaneous binomial (recursive doubling) parallel
  prefix, order-preserving; a linear-chain pipeline as the
  minimal-traffic alternative;
* both doubling schedules take a power-of-two ``radix``: each level
  fans out to ``radix - 1`` peers and folds locally in the doubling
  rounds' own association, so the radix moves rounds and message
  counts, never bytes of the result (``algorithm="auto"`` fits it);
* broadcast/gather/scatter: binomial trees; allgather: gather+bcast;
  alltoall(v): shifted pairwise exchange; barrier: dissemination.

All rank arguments are *group* ranks; the channel translates to world
ranks.  Non-commutative operations always receive the lower-rank operand
as the left argument of ``op``.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, NamedTuple, Protocol, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.mpi.op import Op
from repro.mpi.topology import kary_tree
from repro.obs.metrics import NULL_METRICS
from repro.util.sizing import copy_for_transfer

__all__ = [
    "CollChannel",
    "Recv",
    "run_plan",
    "SubgroupChannel",
    "Schedule",
    "SCHEDULES",
    "schedule",
    "schedules",
    "REMOVED",
    "REDUCE_KARY",
    "SCAN_CHAIN",
    "reduce_binomial_plan",
    "reduce_kary_available",
    "reduce_ring_pipelined_plan",
    "allreduce_recursive_doubling_plan",
    "fanout_levels",
    "allreduce_ring_plan",
    "allreduce_rabenseifner_plan",
    "allreduce_hierarchical_plan",
    "reduce_scatter_ring_plan",
    "bcast_binomial_plan",
    "scan_simultaneous_binomial_plan",
    "scan_linear_chain_plan",
    "gather_binomial_plan",
    "scatter_binomial_plan",
    "allgather_plan",
    "barrier_dissemination_plan",
    "alltoall_pairwise_plan",
]


class CollChannel(Protocol):
    """Point-to-point interface a collective algorithm runs over.

    ``send`` isolates its payload from the sender (the runtime's
    ``copy_for_transfer``), so a plan sends views of a buffer it goes
    on writing without copying them first."""

    rank: int
    size: int

    def send(self, dest: int, payload: Any) -> None: ...
    def recv(self, source: int) -> Any: ...
    def collect(self, source: int): ...  # -> Envelope (no clock effect)
    def apply(self, env) -> Any: ...  # account for collected envelope
    def charge(self, seconds: float, label: str) -> None: ...


def _metrics(ch: CollChannel):
    """The channel's metrics registry; channels without one (tests with
    hand-rolled channels, disabled tracing) get the shared no-op."""
    return getattr(ch, "metrics", NULL_METRICS)


def _charge_combine(ch: CollChannel, seconds: float) -> None:
    if seconds > 0.0:
        ch.charge(seconds, "combine")
        _metrics(ch).histogram("combine.seconds").observe(seconds)


def _require_commutative(op: Any, schedule: str) -> None:
    if isinstance(op, Op) and not op.commutative:
        raise CommunicatorError(
            f"{schedule} requires a commutative op, got {op!r}"
        )


class _InPlace(NamedTuple):
    """MPI_IN_PLACE for the payload-segmenting schedules: ``buf`` is a
    1-D array the caller owns and gives up, reduced in place instead of
    in a private copy.  Only the global-view driver hands one over; the
    result may still come back in a fresh array (the fold-out of
    non-power-of-two groups), so the caller writes back whatever does
    not share ``buf``'s memory."""

    buf: np.ndarray


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


class Recv(NamedTuple):
    """Yielded by a collective plan when its next step needs one message
    from group rank ``source``; the driver resumes the plan with the
    received payload."""

    source: int


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


def reduce_binomial_plan(
    ch: CollChannel, value: Any, op: Op | Callable[[Any, Any], Any],
    *, combine_seconds: float = 0.0,
) -> Plan:
    """Reduce to group rank 0 over the order-preserving binomial tree.

    Safe for non-commutative operations: every partial covers a
    contiguous rank range and lower ranges are always the left operand.
    Returns the reduction on rank 0, ``None`` elsewhere.
    """
    rank, size = ch.rank, ch.size
    partial = value
    rounds = 0
    mask = 1
    while mask < size:
        if rank & mask:
            ch.send(rank - mask, partial)
            return None
        src = rank + mask
        if src < size:
            theirs = yield Recv(src)
            partial = op(partial, theirs)
            _charge_combine(ch, combine_seconds)
        rounds += 1
        mask <<= 1
    # Only the root reaches here, having seen the tree's full depth.
    m = _metrics(ch)
    if m.enabled:
        m.counter("collective.reduce_binomial.calls").inc()
        m.histogram("collective.reduce_binomial.depth").observe(rounds)
    return partial


def reduce_kary_available(
    ch: CollChannel, value: Any, op: Op | Callable[[Any, Any], Any],
    *, fanout: int = 2, combine_seconds: float = 0.0,
) -> Any:
    """Reduce to group rank 0 over a k-ary tree, combining children in the
    order their messages *become available* rather than in rank order.

    Only valid for commutative operations (the k-ary heap numbering does
    not preserve contiguous rank ranges, and availability order is
    arbitrary).  Returns the reduction on rank 0, ``None`` elsewhere.

    The one schedule without a plan form: sorting the children by
    availability needs all their envelopes first, so it blocks inside
    and cannot be issued as a nonblocking request.
    """
    _require_commutative(op, "reduce_kary_available")
    tree = kary_tree(ch.size, fanout)
    node = tree[ch.rank]
    partial = value
    if node.children:
        envs = [ch.collect(c) for c in node.children]
        envs.sort(key=lambda e: e.available_at)
        for env in envs:
            theirs = ch.apply(env)
            partial = op(partial, theirs)
            _charge_combine(ch, combine_seconds)
    if node.parent is not None:
        ch.send(node.parent, partial)
        return None
    m = _metrics(ch)
    if m.enabled:
        m.counter("collective.reduce_kary.calls").inc()
        depth = 0
        probe = ch.size - 1  # deepest node of the heap-numbered k-ary tree
        while tree[probe].parent is not None:
            probe = tree[probe].parent
            depth += 1
        m.histogram("collective.reduce_kary.depth").observe(depth)
    return partial


def reduce_ring_pipelined_plan(
    ch: CollChannel,
    value,
    op: Op | Callable[[Any, Any], Any],
    *,
    segments: int | None = None,
    combine_seconds: float = 0.0,
) -> Plan:
    """Reduce a splittable NumPy vector to group rank 0 by pipelining
    segments down the ring path ``p-1 -> p-2 -> ... -> 0``.

    Each link carries the full vector once, in ``segments`` pieces, and
    the pieces flow concurrently: the makespan is roughly
    ``(p - 2 + segments) * (latency + seg_bytes * G)`` instead of the
    binomial tree's ``log2(p) * (latency + n_bytes * G)`` — the win for
    large vectors.  Rank ``r`` always combines its own contribution as
    the *left* operand of the partial covering ranks ``r+1..p-1``, so the
    schedule is order-preserving and **non-commutative safe**; it does,
    however, require an *elementwise* operation (segments are combined
    independently — see :attr:`repro.mpi.op.Op.elementwise`).

    Returns the reduction on rank 0, ``None`` elsewhere.
    """
    rank, size = ch.rank, ch.size
    arr, scalar = _as_vector(value)
    if size == 1:
        return _from_vector(arr, scalar)
    n = len(arr)
    if segments is None:
        # ~64 KiB per piece keeps pipeline-fill latency small relative to
        # per-piece byte time without flooding the run with tiny messages.
        segments = int(np.ceil(arr.nbytes / 65536)) if arr.nbytes else 1
    segments = max(1, min(int(segments), n))
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.reduce_ring_pipelined.calls").inc()
        m.histogram("collective.reduce_ring_pipelined.stages").observe(
            size - 2 + segments
        )
    bounds = _segment_bounds(n, segments)
    for s in range(segments):
        sl = slice(bounds[s], bounds[s + 1])
        if rank < size - 1:
            got = yield Recv(rank + 1)  # partial over ranks [rank+1, p-1]
            arr[sl] = op(arr[sl], got)  # own (lower ranks) on the left
            _charge_combine(ch, combine_seconds)
        if rank > 0:
            ch.send(rank - 1, arr[sl])
    if rank > 0:
        return None
    return _from_vector(arr, scalar)


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
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.allreduce_rd.calls").inc()
        m.histogram("collective.allreduce_rd.rounds").observe(
            len(levels) + (2 if rem else 0)
        )
        m.histogram("collective.allreduce_rd.radix").observe(radix)

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
# Scans
# --------------------------------------------------------------------------


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
    m = _metrics(ch)
    if m.enabled and rank == 0:
        levels, s = 0, 1
        while s < size:  # ceil(log_radix size)
            levels += 1
            s *= radix
        m.counter("collective.scan_binomial.calls").inc()
        m.histogram("collective.scan_binomial.rounds").observe(levels)
        m.histogram("collective.scan_binomial.radix").observe(radix)
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


def scan_linear_chain_plan(
    ch: CollChannel,
    value: Any,
    op: Op | Callable[[Any, Any], Any],
    *,
    exclusive: bool = False,
    identity: Callable[[], Any] | None = None,
    combine_seconds: float = 0.0,
) -> Plan:
    """Prefix over ranks by a linear pipeline: rank ``r`` receives the
    inclusive prefix of ranks ``0..r-1`` from its left neighbor, combines
    once, and forwards.

    Minimal traffic (``p - 1`` messages and combines in total versus the
    simultaneous binomial's ``~p log2 p``) at the price of ``p - 1``
    serialized hops on the critical path — the trade Träff's exscan
    round/compute analysis maps out.  Order-preserving, any payload.
    """
    rank, size = ch.rank, ch.size
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.scan_chain.calls").inc()
        m.histogram("collective.scan_chain.hops").observe(max(size - 1, 0))
    if rank == 0:
        if size > 1:
            ch.send(1, value)
        if exclusive:
            return identity() if identity is not None else None
        return value
    prefix = yield Recv(rank - 1)  # inclusive prefix of ranks [0, rank-1]
    # The combine may mutate its left operand; keep the exclusive result
    # isolated from the inclusive value forwarded down the chain.
    mine = copy_for_transfer(prefix) if exclusive else None
    inclusive = op(prefix, value)
    _charge_combine(ch, combine_seconds)
    if rank + 1 < size:
        ch.send(rank + 1, inclusive)
    return mine if exclusive else inclusive


# --------------------------------------------------------------------------
# Data movement
# --------------------------------------------------------------------------


def bcast_binomial_plan(ch: CollChannel, value: Any, root: int = 0) -> Plan:
    """Broadcast from ``root`` over a binomial tree (rank-renamed)."""
    rank, size = ch.rank, ch.size
    if not 0 <= root < size:
        raise CommunicatorError(f"bcast root {root} out of range [0, {size})")
    vr = (rank - root) % size
    mask = 1
    while mask < size:
        if vr & mask:
            src = (vr - mask + root) % size
            value = yield Recv(src)
            break
        mask <<= 1
    mask >>= 1
    while mask >= 1:
        if vr + mask < size and not (vr & mask):
            ch.send((vr + mask + root) % size, value)
        mask >>= 1
    return value


def gather_binomial_plan(ch: CollChannel, value: Any, root: int = 0) -> Plan:
    """Gather one value per rank to ``root`` over a binomial tree.

    Returns the list ordered by group rank on the root, ``None`` elsewhere.
    """
    rank, size = ch.rank, ch.size
    if not 0 <= root < size:
        raise CommunicatorError(f"gather root {root} out of range [0, {size})")
    vr = (rank - root) % size
    # items[i] holds the value of virtual rank vr + i
    items: list[Any] = [value]
    mask = 1
    while mask < size:
        if vr & mask:
            dest = (vr - mask + root) % size
            ch.send(dest, items)
            return None
        src_vr = vr + mask
        if src_vr < size:
            theirs = yield Recv((src_vr + root) % size)
            items.extend(theirs)
        mask <<= 1
    # vr == 0 == root: rotate from virtual order back to group order
    return [items[(r - root) % size] for r in range(size)]


def allgather_plan(ch: CollChannel, value: Any) -> Plan:
    """Gather one value per rank onto every rank: binomial gather to
    rank 0, then binomial broadcast of the list."""
    items = yield from gather_binomial_plan(ch, value, 0)
    return (yield from bcast_binomial_plan(ch, items, 0))


def scatter_binomial_plan(
    ch: CollChannel, items: Sequence[Any] | None, root: int = 0
) -> Plan:
    """Scatter ``items[i]`` (given on the root) to group rank ``i`` over a
    binomial tree; returns this rank's item."""
    rank, size = ch.rank, ch.size
    if not 0 <= root < size:
        raise CommunicatorError(f"scatter root {root} out of range [0, {size})")
    vr = (rank - root) % size
    my: list[Any] | None = None
    if vr == 0:
        if items is None or len(items) != size:
            raise CommunicatorError(
                f"scatter root must supply exactly {size} items, got "
                f"{'None' if items is None else len(items)}"
            )
        # reorder into virtual-rank order
        my = [items[(v + root) % size] for v in range(size)]
    lo, hi = 0, size
    while hi - lo > 1:
        half = 1 << ((hi - lo - 1).bit_length() - 1)
        mid = lo + half
        if vr < mid:
            if vr == lo:
                assert my is not None
                ch.send((mid + root) % size, my[mid - lo :])
                my = my[: mid - lo]
            hi = mid
        else:
            if vr == mid:
                my = yield Recv((lo + root) % size)
            lo = mid
    assert my is not None and len(my) == 1
    return my[0]


def barrier_dissemination_plan(ch: CollChannel) -> Plan:
    """Dissemination barrier: ceil(log2 p) rounds of shifted token passing."""
    rank, size = ch.rank, ch.size
    d = 1
    while d < size:
        ch.send((rank + d) % size, None)
        yield Recv((rank - d) % size)
        d <<= 1


def alltoall_pairwise_plan(ch: CollChannel, items: Sequence[Any]) -> Plan:
    """All-to-all personalized exchange: ``items[i]`` goes to rank ``i``;
    returns the list received (indexed by source rank).  Uses the shifted
    pairwise schedule (size-1 rounds)."""
    rank, size = ch.rank, ch.size
    if len(items) != size:
        raise CommunicatorError(
            f"alltoall needs exactly {size} items per rank, got {len(items)}"
        )
    out: list[Any] = [None] * size
    out[rank] = items[rank]
    for shift in range(1, size):
        dest = (rank + shift) % size
        src = (rank - shift) % size
        ch.send(dest, items[dest])
        out[src] = yield Recv(src)
    return out


# The two phases of the bandwidth-optimal ring, shared by the ring
# allreduce, the ring reduce-scatter and the hierarchical allreduce's
# intra-node allgather.  Segment indices are taken modulo the ring size.


def _ring_reduce_scatter(
    ch: CollChannel, arr, bounds, op, first: int, combine_seconds: float
) -> Plan:
    """``p - 1`` steps around the ring, each moving one segment of
    ``arr`` to the right neighbor, which combines it into its own copy:
    this rank starts by sending segment ``first`` and ends up holding the
    fully reduced segment ``first + 1``."""
    rank, size = ch.rank, ch.size
    right, left = (rank + 1) % size, (rank - 1) % size
    for t in range(size - 1):
        i = (first - t) % size
        ch.send(right, arr[bounds[i] : bounds[i + 1]])
        got = yield Recv(left)
        mine = slice(bounds[(i - 1) % size], bounds[(i - 1) % size + 1])
        arr[mine] = op(got, arr[mine])
        _charge_combine(ch, combine_seconds)


def _ring_allgather(ch: CollChannel, arr, bounds, owned: int) -> Plan:
    """Circulate the finished segments (this rank holds ``owned``) until
    every rank has all of ``arr``."""
    rank, size = ch.rank, ch.size
    right, left = (rank + 1) % size, (rank - 1) % size
    for t in range(size - 1):
        i = (owned - t) % size
        ch.send(right, arr[bounds[i] : bounds[i + 1]])
        got = yield Recv(left)
        j = (i - 1) % size
        arr[bounds[j] : bounds[j + 1]] = got


def allreduce_ring_plan(
    ch: CollChannel,
    value,
    op: Op | Callable[[Any, Any], Any],
    *,
    combine_seconds: float = 0.0,
) -> Plan:
    """Bandwidth-optimal ring all-reduce for NumPy arrays.

    Reduce-scatter around the ring (p-1 steps, each moving 1/p of the
    data) followed by a ring all-gather (another p-1 steps): every rank
    sends ~2n/p * (p-1) bytes total versus recursive doubling's
    n * log2(p).  The combining order is a ring rotation, not rank
    order, so this schedule requires a **commutative** operation.
    """
    _require_commutative(op, "allreduce_ring")
    rank, size = ch.rank, ch.size
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.allreduce_ring.calls").inc()
        m.histogram("collective.allreduce_ring.steps").observe(2 * (size - 1))
    arr, scalar = _as_vector(value)
    if size > 1:
        bounds = _segment_bounds(len(arr), size)
        yield from _ring_reduce_scatter(
            ch, arr, bounds, op, rank, combine_seconds
        )
        yield from _ring_allgather(ch, arr, bounds, rank + 1)
    return _from_vector(arr, scalar)


def reduce_scatter_ring_plan(
    ch: CollChannel,
    value,
    op: Op | Callable[[Any, Any], Any],
    *,
    combine_seconds: float = 0.0,
) -> Plan:
    """Ring reduce-scatter: rank r ends up with segment r of the
    element-wise reduction, having moved only (p-1)/p of the data.

    Returns ``(segment, (lo, hi))`` where ``[lo, hi)`` is the global
    index range of the segment (a 0-d input counts as one element); the
    segment owns its data, so keeping it does not pin the other n·(p-1)/p
    elements.  Commutative operations only (ring order).
    """
    _require_commutative(op, "reduce_scatter_ring")
    rank, size = ch.rank, ch.size
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.reduce_scatter_ring.calls").inc()
        m.histogram("collective.reduce_scatter_ring.steps").observe(size - 1)
    arr, _ = _as_vector(value)
    if size == 1:
        return arr, (0, len(arr))
    bounds = _segment_bounds(len(arr), size)
    # Starts one segment behind the ring allreduce so the final fully
    # reduced segment at rank r is segment r (MPI_Reduce_scatter_block).
    yield from _ring_reduce_scatter(
        ch, arr, bounds, op, rank - 1, combine_seconds
    )
    lo, hi = int(bounds[rank]), int(bounds[rank + 1])
    return arr[lo:hi].copy(), (lo, hi)


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
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.allreduce_rab.calls").inc()
        m.histogram("collective.allreduce_rab.rounds").observe(
            2 * (pof2 - 1).bit_length() + (2 if rem else 0)
        )

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


# --------------------------------------------------------------------------
# Hierarchical (topology-aware) collectives
# --------------------------------------------------------------------------
#
# On a multi-tier fabric (see ``repro.runtime.fabric``) not all links are
# equal: ranks sharing a node talk over memory-class links while
# inter-node messages pay network latency and bandwidth.  The schedule
# below exploits that by confining the bulky phases to intra-node links
# and crossing the slow tier as few times — and as *concurrently* — as
# possible.  It is composed from the flat plans above running over
# :class:`SubgroupChannel` views, so every message still bottoms out in
# the same point-to-point machinery and costs stay emergent.
#
# ``groups`` is the node partition as *group-rank* tuples, contiguous and
# ascending (``repro.runtime.fabric.contiguous_node_groups`` builds it
# from a communicator's placement).  Contiguity is what keeps the leader
# phase order-preserving for non-commutative operations: each node's
# partial covers a contiguous rank range and lower ranges stay the left
# operand.  With ``groups=None`` (or all-singleton groups) the schedule
# degrades gracefully to its flat counterparts.


class SubgroupChannel:
    """A :class:`CollChannel` view onto a subset of a channel's ranks.

    ``ranks`` lists the parent group ranks belonging to the subgroup, in
    subgroup rank order; the calling rank must be among them.  Sends,
    receives and collects translate subgroup ranks to parent ranks, so
    any flat plan runs unmodified over the subgroup — the composition
    trick the hierarchical schedule is built on.  Plans written
    against a subgroup yield :class:`Recv` markers in *subgroup*
    coordinates; :func:`_drive_sub` re-yields them translated so the
    outer driver sees parent group ranks.
    """

    __slots__ = ("parent", "ranks", "rank", "size")

    def __init__(self, parent: CollChannel, ranks: Sequence[int]):
        self.parent = parent
        self.ranks = tuple(ranks)
        self.rank = self.ranks.index(parent.rank)
        self.size = len(self.ranks)

    @property
    def metrics(self):
        return getattr(self.parent, "metrics", NULL_METRICS)

    def send(self, dest: int, payload: Any) -> None:
        self.parent.send(self.ranks[dest], payload)

    def recv(self, source: int) -> Any:
        return self.parent.recv(self.ranks[source])

    def collect(self, source: int):
        return self.parent.collect(self.ranks[source])

    def apply(self, env) -> Any:
        return self.parent.apply(env)

    def charge(self, seconds: float, label: str) -> None:
        self.parent.charge(seconds, label)


def _drive_sub(plan: Plan, ranks: Sequence[int]) -> Plan:
    """Relay a subgroup plan, translating its Recv sources to parent ranks."""
    try:
        step = next(plan)
        while True:
            got = yield Recv(ranks[step.source])
            step = plan.send(got)
    except StopIteration as stop:
        return stop.value


def _locate_group(
    groups: Sequence[Sequence[int]], rank: int
) -> tuple[tuple[int, ...], int]:
    """Find ``rank``'s ``(group, local_index)`` in a partition."""
    for grp in groups:
        if rank in grp:
            return tuple(grp), tuple(grp).index(rank)
    raise CommunicatorError(
        f"rank {rank} missing from hierarchical groups {groups!r}"
    )


def allreduce_hierarchical_plan(
    ch: CollChannel,
    value: Any,
    op: Op | Callable[[Any, Any], Any],
    *,
    groups: Sequence[Sequence[int]] | None = None,
    combine_seconds: float = 0.0,
) -> Plan:
    """Topology-aware all-reduce over a node partition of the group.

    For commutative elementwise operations on sufficiently long vectors
    with equal-size groups, runs the 2-D SMP-aware schedule (intra-node
    reduce-scatter, concurrent per-segment inter-node allreduce,
    intra-node allgather), cutting slow-tier traffic per rank by the
    node size.  Everything else takes the leader schedule (intra-node
    binomial reduce, leader allreduce, intra-node bcast), which is
    order-preserving and non-commutative safe because groups are
    contiguous rank ranges.  With ``groups=None`` degrades to the flat
    recursive-doubling/Rabenseifner schedules.
    """
    rank, size = ch.rank, ch.size
    if groups is None:
        groups = tuple((r,) for r in range(size))
    g, li = _locate_group(groups, rank)
    nnodes = len(groups)
    m = _metrics(ch)
    if m.enabled and rank == 0:
        m.counter("collective.allreduce_hier.calls").inc()
        m.histogram("collective.allreduce_hier.nodes").observe(nnodes)
    commutative = isinstance(op, Op) and op.commutative
    elementwise = getattr(op, "elementwise", False)
    nlocal = len(g)
    sub = SubgroupChannel(ch, g)
    # The 2-D schedule needs every rank to own a distinct segment, which
    # requires equal-size node groups (segment l of node j pairs with
    # segment l of every other node) and a vector long enough to split.
    uniform = all(len(grp) == nlocal for grp in groups)
    if (
        uniform and nlocal > 1 and nnodes > 1 and commutative and elementwise
        and isinstance(value, np.ndarray) and value.ndim == 1
        and len(value) >= size
    ):
        # 2-D SMP-aware schedule: (1) intra-node ring reduce-scatter on
        # the cheap links leaves local rank l holding segment l of the
        # node sum; (2) the "column" of same-index ranks across nodes
        # allreduces its segment — all nlocal columns cross the slow
        # tier concurrently, each moving only n/nlocal bytes; (3) an
        # intra-node ring allgather reassembles the vector.  Inter-node
        # bytes per rank drop from ~2n (leader schedules) to ~2n/nlocal.
        seg_val, (lo, hi) = yield from _drive_sub(
            reduce_scatter_ring_plan(
                sub, value, op, combine_seconds=combine_seconds
            ),
            g,
        )
        col = tuple(grp[li] for grp in groups)
        seg_val = yield from _drive_sub(
            allreduce_rabenseifner_plan(
                SubgroupChannel(ch, col), seg_val, op,
                combine_seconds=combine_seconds,
            ),
            col,
        )
        out = np.empty(len(value), dtype=np.asarray(seg_val).dtype)
        out[lo:hi] = seg_val
        yield from _drive_sub(
            _ring_allgather(
                sub, out, _segment_bounds(len(value), nlocal), li
            ),
            g,
        )
        return out
    # Leader schedule (any operation, any payload): order-preserving
    # intra-node binomial reduce to the node leader, an allreduce among
    # leaders, then an intra-node broadcast.  Node partials cover
    # contiguous rank ranges, so non-commutative ops stay correct.
    partial = yield from _drive_sub(
        reduce_binomial_plan(sub, value, op, combine_seconds=combine_seconds),
        g,
    )
    if li == 0 and nnodes > 1:
        leaders = tuple(grp[0] for grp in groups)
        lsub = SubgroupChannel(ch, leaders)
        if (
            commutative and elementwise
            and isinstance(partial, np.ndarray) and partial.ndim == 1
            and len(partial) >= nnodes
        ):
            lplan = allreduce_rabenseifner_plan(
                lsub, partial, op, combine_seconds=combine_seconds
            )
        else:
            lplan = allreduce_recursive_doubling_plan(
                lsub, partial, op, combine_seconds=combine_seconds
            )
        partial = yield from _drive_sub(lplan, leaders)
    result = yield from _drive_sub(bcast_binomial_plan(sub, partial, root=0), g)
    return result


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


class Schedule(NamedTuple):
    """One registered algorithm for one collective ``kind``."""

    kind: str
    #: The ``algorithm=`` name (for kinds with a single schedule, just
    #: its name in docs and spans).
    name: str
    #: ``plan(ch, *operands, **options)`` -> :data:`Plan`.
    plan: Callable[..., Any]
    #: Lower ranks are always the left operand: safe for non-commutative
    #: operations.
    order_preserving: bool = True
    #: Splits the payload and combines the pieces independently: needs a
    #: splittable operand (``tuning.is_splittable``).
    segments: bool = False
    #: ``plan`` takes ``radix=``, the fitted fan-out of ``"auto"``.
    radix: bool = False
    #: ``plan`` takes ``groups=``, the node partition; a candidate for
    #: ``"auto"`` only in tables fitted on a non-flat fabric.
    groups: bool = False
    #: ``plan`` is a generator a ``Request`` can suspend; ``False`` marks
    #: a blocking function (no ``i*`` form, never chosen by ``"auto"``).
    resumable: bool = True


#: Names that used to be registered, so a stale call site or table is
#: told why its schedule is gone rather than just that it is unknown.
REMOVED = {
    ("scan", "hierarchical"): (
        "removed: the hierarchical scan lost to the flat binomial scan on "
        "all 27 recorded cells, 0.77-0.99x; see EXPERIMENTS.md EX-HIER"
    ),
}

REDUCE_KARY = Schedule(
    "reduce", "kary", reduce_kary_available,
    order_preserving=False, resumable=False,
)
SCAN_CHAIN = Schedule("scan", "chain", scan_linear_chain_plan)

#: ``SCHEDULES[kind][name]``; the first entry of a kind is its
#: order-preserving, non-segmenting default.
SCHEDULES: dict[str, dict[str, Schedule]] = {}
for _s in (
    Schedule("reduce", "binomial", reduce_binomial_plan),
    Schedule(
        "reduce", "pipelined_ring", reduce_ring_pipelined_plan, segments=True
    ),
    REDUCE_KARY,
    Schedule(
        "allreduce", "recursive_doubling", allreduce_recursive_doubling_plan,
        radix=True,
    ),
    Schedule(
        "allreduce", "ring", allreduce_ring_plan,
        order_preserving=False, segments=True,
    ),
    Schedule(
        "allreduce", "rabenseifner", allreduce_rabenseifner_plan,
        order_preserving=False, segments=True,
    ),
    Schedule(
        "allreduce", "hierarchical", allreduce_hierarchical_plan, groups=True
    ),
    Schedule("scan", "binomial", scan_simultaneous_binomial_plan, radix=True),
    SCAN_CHAIN,
    Schedule(
        "reduce_scatter", "ring", reduce_scatter_ring_plan,
        order_preserving=False, segments=True,
    ),
    Schedule("bcast", "binomial", bcast_binomial_plan),
    Schedule("gather", "binomial", gather_binomial_plan),
    Schedule("scatter", "binomial", scatter_binomial_plan),
    Schedule("allgather", "gather_bcast", allgather_plan),
    Schedule("alltoall", "pairwise", alltoall_pairwise_plan),
    Schedule("barrier", "dissemination", barrier_dissemination_plan),
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
