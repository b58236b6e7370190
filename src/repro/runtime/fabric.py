"""Pluggable multi-tier network fabric model.

The original simulator charged every rank pair the same flat LogGP wire
time — a single switch with uniform links.  Real clusters (the paper's
IBM P655 included) are hierarchical: ranks share a node, nodes share a
rack switch, racks meet at a spine, and each tier has its own latency,
bandwidth and (for shared uplinks) oversubscription.  A
:class:`Topology` captures that shape and prices one message between two
ranks via :meth:`Topology.path_cost`, which
:meth:`repro.runtime.world.RankContext.send_raw` (and the lossy-link
layer in :mod:`repro.faults.reliable`) consult instead of calling
``CostModel.wire_time`` directly.

Three factories cover the useful shapes: :func:`flat` — one tier;
``path_cost`` delegates to the run's
:class:`~repro.runtime.costmodel.CostModel` **bit-for-bit**, so the
default topology reproduces every pre-fabric number exactly — and the
multi-tier :func:`multi_node` and :func:`fat_tree`, which live with
:class:`HierarchicalTopology` and :func:`parse_topology` in
:mod:`repro.runtime.fabric_tiers` and resolve here too.

Topologies are *shapes*, not allocations: ``node_of``/``rack_of`` are
pure functions of the rank number, so one instance serves any world
size.  Non-flat topologies also keep per-tier traffic counters
(:meth:`Topology.stats`), surfaced as ``Engine.stats()["fabric"]``.
"""

from __future__ import annotations

from repro import _lazy

__all__ = [
    "Topology",
    "FlatTopology",
    "HierarchicalTopology",
    "FLAT",
    "flat",
    "multi_node",
    "fat_tree",
    "parse_topology",
    "contiguous_node_groups",
]



class Topology:
    """Base class: placement (rank → node → rack) plus per-tier pricing.

    ``path_cost(src, dst, nbytes, cost_model)`` returns the wire time a
    message pays between two world ranks; the caller's active
    :class:`~repro.runtime.costmodel.CostModel` is passed in so flat
    topologies (and unpinned inter-node tiers) follow per-job cost
    models exactly as the pre-fabric code did.  Self-sends are free at
    every tier.
    """

    kind: str = "topology"
    signature: str = "topology"
    is_flat: bool = False

    def path_cost(
        self, src: int, dst: int, nbytes: int, cost_model
    ) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def node_of(self, rank: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def rack_of(self, rank: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def nodes_spanned(self, ranks) -> int:
        """Distinct nodes under a set of world ranks (gang spread)."""
        return len({self.node_of(r) for r in ranks})

    def stats(self) -> dict[str, float]:
        """Per-tier traffic/congestion counters (empty when untracked)."""
        return {}

    def describe(self) -> str:
        return self.signature

    @staticmethod
    def flat() -> "FlatTopology":
        """The single-tier default (today's numbers, bit-for-bit)."""
        return FLAT

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.signature!r})"


class FlatTopology(Topology):
    """One switch, uniform links: the pre-fabric cost path.

    ``path_cost`` literally evaluates ``cost_model.wire_time(nbytes)``
    (0.0 for self-sends), so every existing makespan, BENCH number and
    identity grid is reproduced to the last bit.  Stateless — the
    module-level :data:`FLAT` singleton is shared by every world that
    does not select a fabric, and keeps the hot path counter-free.
    """

    kind = "flat"
    signature = "flat"
    is_flat = True

    def path_cost(self, src: int, dst: int, nbytes: int, cost_model) -> float:
        return 0.0 if dst == src else cost_model.wire_time(nbytes)

    def node_of(self, rank: int) -> int:
        return 0

    def rack_of(self, rank: int) -> int:
        return 0


#: The shared default topology (see :class:`FlatTopology`).
FLAT = FlatTopology()


def flat() -> FlatTopology:
    """The single-tier default fabric (see :class:`FlatTopology`)."""
    return FLAT


def contiguous_node_groups(
    topology: Topology | None, members
) -> tuple[tuple[int, ...], ...] | None:
    """Partition a communicator's members into node groups, as *group*
    ranks, for the hierarchical collectives.

    ``members`` is the group-rank-ordered tuple of world ranks.  Groups
    are built by run-length over consecutive members sharing a node, so
    they are contiguous group-rank ranges **by construction** — the
    property the order-preserving hierarchical schedules rely on (a
    node id that reappears non-contiguously simply becomes two virtual
    nodes).  Returns ``None`` when there is nothing to exploit: a flat
    (or absent) topology, or every member on one node.
    """
    if topology is None or topology.is_flat:
        return None
    groups: list[tuple[int, ...]] = []
    current: list[int] = []
    current_node: int | None = None
    for g, w in enumerate(members):
        node = topology.node_of(w)
        if current and node == current_node:
            current.append(g)
        else:
            if current:
                groups.append(tuple(current))
            current = [g]
            current_node = node
    if current:
        groups.append(tuple(current))
    if len(groups) <= 1:
        return None
    return tuple(groups)


__getattr__, __dir__, _ = _lazy.attach(__name__, {
    "fabric_tiers": (
        "HierarchicalTopology", "INTRA_NODE_LATENCY", "INTRA_NODE_BYTE_TIME",
        "multi_node", "fat_tree", "parse_topology",
    ),
})
