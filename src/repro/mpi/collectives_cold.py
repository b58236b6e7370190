"""The collective plans ``algorithm="auto"`` never picks on a flat fabric.

:mod:`repro.mpi.collectives` keeps the plans a job on the default flat
fabric runs (recursive doubling, Rabenseifner, the binomial scan) and the
:class:`~repro.mpi.collectives.Schedule` registry.  The registry names
the plans below by their function name and imports this module the
first time one of them runs, so a cold start compiles none of them.
Every name here also resolves as ``repro.mpi.collectives.<name>``.

* reductions: the order-preserving binomial tree (``reduce``'s default,
  valid for non-commutative operations); a k-ary "combine-as-available"
  tree for commutative operations (the paper's §1 fan-out observation);
  a segmented/pipelined ring for large splittable vectors;
* allreduce: the bandwidth-optimal ring; the hierarchical schedule of a
  multi-tier fabric; reduce-scatter: the ring;
* scan/exscan: a linear-chain pipeline, the minimal-traffic alternative
  to the binomial prefix;
* broadcast/gather/scatter: binomial trees; allgather: gather+bcast;
  alltoall(v): shifted pairwise exchange; barrier: dissemination.

All rank arguments are *group* ranks; non-commutative operations always
receive the lower-rank operand as the left argument of ``op``.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.mpi.collectives import (
    Plan,
    Recv,
    _as_vector,
    _charge_combine,
    _from_vector,
    _require_commutative,
    _segment_bounds,
    allreduce_recursive_doubling_plan,
)
from repro.mpi.rabenseifner import allreduce_rabenseifner_plan
from repro.mpi.op import Op
from repro.mpi.topology import kary_tree
from repro.util.sizing import copy_for_transfer

__all__ = [
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


# --------------------------------------------------------------------------
# Reductions and scans
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
        mask <<= 1
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


# --------------------------------------------------------------------------
# Rings
# --------------------------------------------------------------------------
#
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
