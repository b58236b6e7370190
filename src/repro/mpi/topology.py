"""Communication-tree topologies used by the collective algorithms.

The collectives themselves (``repro.mpi.collectives``) are expressed over
abstract tree/schedule structures defined here, so the fan-out ablation
(paper §1: "if the branching factor on the log tree is greater than two
... reductions of commutative operators can immediately combine whichever
partial results are available") can swap topologies without touching the
algorithms.
"""

from __future__ import annotations

import math

from repro.errors import CommunicatorError
from repro.util.record import Record

__all__ = [
    "TreeNode",
    "binomial_tree",
    "kary_tree",
    "tree_depth",
    "dims_create",
]


class TreeNode(Record, frozen=True):
    """One rank's position in a reduction/broadcast tree.

    ``children`` are ordered by ascending rank; for an *order-preserving*
    (non-commutative) reduction each child's partial covers a contiguous
    rank range adjacent to the parent's.
    """

    __slots__ = ("rank", "parent", "children")

    def __init__(self, rank: int, parent: int | None, children: tuple[int, ...]):
        Record.__init__(self, rank, parent, children)


def binomial_tree(size: int) -> list[TreeNode]:
    """The binomial reduction tree over ranks ``0..size-1`` rooted at 0.

    Rank ``r``'s parent clears its lowest set bit; its children are
    ``r + 2**k`` for each ``k`` below the lowest set bit of ``r`` (or below
    ``ceil(log2 size)`` for the root).  Every child subtree covers a
    contiguous rank range, which makes the tree safe for non-commutative
    operations when children are combined in ascending-rank order.
    """
    if size < 1:
        raise CommunicatorError(f"tree size must be >= 1, got {size}")
    nodes = []
    for r in range(size):
        if r == 0:
            parent = None
            low = size.bit_length()  # unlimited; bounded by size below
        else:
            lsb = r & -r
            parent = r - lsb
            low = int(math.log2(lsb))
        children = []
        k = 0
        while k < low:
            c = r + (1 << k)
            if c < size:
                children.append(c)
            k += 1
        nodes.append(TreeNode(r, parent, tuple(sorted(children))))
    return nodes


def kary_tree(size: int, fanout: int) -> list[TreeNode]:
    """A complete k-ary tree over ranks ``0..size-1`` rooted at 0.

    Rank ``r``'s children are ``fanout*r + 1 .. fanout*r + fanout`` (heap
    numbering).  Unlike the binomial tree, heap-numbered subtrees do *not*
    cover contiguous rank ranges, so this topology is only offered for
    **commutative** operations.
    """
    if fanout < 2:
        raise CommunicatorError(f"tree fanout must be >= 2, got {fanout}")
    if size < 1:
        raise CommunicatorError(f"tree size must be >= 1, got {size}")
    nodes = []
    for r in range(size):
        parent = None if r == 0 else (r - 1) // fanout
        children = tuple(
            c for c in range(fanout * r + 1, fanout * r + fanout + 1) if c < size
        )
        nodes.append(TreeNode(r, parent, children))
    return nodes


def tree_depth(nodes: list[TreeNode]) -> int:
    """Depth of the tree (edges on the longest root-to-leaf path)."""
    depth = {0: 0}
    # ranks are numbered so that parent < child in both constructions
    for node in nodes[1:]:
        depth[node.rank] = depth[node.parent] + 1
    return max(depth.values(), default=0)


def dims_create(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Factor ``nprocs`` into ``ndims`` balanced dimensions (like
    ``MPI_Dims_create``): dimensions are as close to equal as possible,
    sorted in non-increasing order.

    Edge cases (matching the MPI standard, which requires ``nnodes`` to
    be positive): ``nprocs == 0`` is rejected with
    :class:`~repro.errors.CommunicatorError` rather than returning a
    degenerate all-zero shape, and ``nprocs == 1`` returns the trivial
    grid ``(1,) * ndims`` — a single rank occupies every dimension.
    """
    if nprocs < 1 or ndims < 1:
        raise CommunicatorError(
            f"dims_create needs nprocs >= 1 and ndims >= 1, got "
            f"({nprocs}, {ndims})"
        )
    dims = [1] * ndims
    remaining = nprocs
    # Repeatedly peel the largest prime factor onto the smallest dimension.
    factors: list[int] = []
    f = 2
    while f * f <= remaining:
        while remaining % f == 0:
            factors.append(f)
            remaining //= f
        f += 1
    if remaining > 1:
        factors.append(remaining)
    for factor in sorted(factors, reverse=True):
        dims[dims.index(min(dims))] *= factor
    return tuple(sorted(dims, reverse=True))
