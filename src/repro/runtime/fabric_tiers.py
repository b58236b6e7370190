"""The multi-tier fabrics: nodes, racks and a spine, priced per tier.

:mod:`repro.runtime.fabric` holds the :class:`~repro.runtime.fabric.Topology`
interface and the flat default every job runs on unless it selects a
fabric; the hierarchical shapes live here and are re-exported there, so
a cold start on the flat fabric does not compile them.

* :func:`multi_node` — ranks packed ``ranks_per_node`` per node inside
  one rack: fast intra-node links (shared memory/NVLink class), the
  cost model's parameters between nodes.
* :func:`fat_tree` — adds the rack tier: nodes grouped
  ``nodes_per_rack`` per ToR switch, inter-rack traffic crossing an
  oversubscribed spine (a static oversubscription factor multiplies the
  per-byte time — deterministic, so virtual times stay reproducible).
"""

from __future__ import annotations

import threading

from repro.runtime.fabric import FLAT, Topology

__all__ = [
    "HierarchicalTopology",
    "INTRA_NODE_LATENCY",
    "INTRA_NODE_BYTE_TIME",
    "multi_node",
    "fat_tree",
    "parse_topology",
]

#: Default intra-node link: sub-microsecond latency, ~10 GB/s — the
#: shared-memory class of transport (matches ``costmodel.modern_node``).
INTRA_NODE_LATENCY = 5.0e-7
INTRA_NODE_BYTE_TIME = 1.0 / 10.0e9


class HierarchicalTopology(Topology):
    """Ranks → nodes → racks with per-tier link parameters.

    Placement is arithmetic: rank ``r`` lives on node ``r //
    ranks_per_node``; node ``n`` lives in rack ``n // nodes_per_rack``
    (one rack when ``nodes_per_rack`` is ``None``).  Tier pricing:

    * same node: ``intra_latency + nbytes * intra_byte_time``;
    * same rack, different node (one ToR hop): ``inter_latency +
      nbytes * inter_byte_time`` — both default to the caller's cost
      model, so inter-node messages cost exactly what the flat fabric
      charged;
    * different rack (up through the spine): ``spine_latency + nbytes *
      inter_byte_time * oversubscription`` — the static
      oversubscription factor models contention on the shared uplinks
      deterministically (``spine_latency`` defaults to twice the
      inter-node latency: two extra switch hops).

    Traffic per tier (and the extra serialization seconds attributable
    to oversubscription) is counted under a lock and reported by
    :meth:`stats`; counters never feed back into costs, so they cannot
    perturb virtual time.
    """

    kind = "hierarchical"

    def __init__(
        self,
        ranks_per_node: int,
        *,
        nodes_per_rack: int | None = None,
        intra_latency: float = INTRA_NODE_LATENCY,
        intra_byte_time: float = INTRA_NODE_BYTE_TIME,
        inter_latency: float | None = None,
        inter_byte_time: float | None = None,
        spine_latency: float | None = None,
        oversubscription: float = 1.0,
        kind: str = "hierarchical",
        signature: str | None = None,
    ):
        if ranks_per_node < 1:
            raise ValueError(
                f"ranks_per_node must be >= 1, got {ranks_per_node}"
            )
        if nodes_per_rack is not None and nodes_per_rack < 1:
            raise ValueError(
                f"nodes_per_rack must be >= 1, got {nodes_per_rack}"
            )
        if oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {oversubscription}"
            )
        self.ranks_per_node = int(ranks_per_node)
        self.nodes_per_rack = (
            None if nodes_per_rack is None else int(nodes_per_rack)
        )
        self.intra_latency = float(intra_latency)
        self.intra_byte_time = float(intra_byte_time)
        self.inter_latency = inter_latency
        self.inter_byte_time = inter_byte_time
        self.spine_latency = spine_latency
        self.oversubscription = float(oversubscription)
        self.kind = kind
        self.signature = signature if signature is not None else (
            f"{kind}:{self.ranks_per_node}"
        )
        self._lock = threading.Lock()
        self._counts = {
            "intra_msgs": 0, "intra_bytes": 0,
            "uplink_msgs": 0, "uplink_bytes": 0,
            "spine_msgs": 0, "spine_bytes": 0,
            "extra_seconds": 0.0,
        }

    # -- placement --------------------------------------------------------

    def node_of(self, rank: int) -> int:
        return rank // self.ranks_per_node

    def rack_of(self, rank: int) -> int:
        if self.nodes_per_rack is None:
            return 0
        return self.node_of(rank) // self.nodes_per_rack

    # -- pricing ----------------------------------------------------------

    def path_cost(self, src: int, dst: int, nbytes: int, cost_model) -> float:
        if dst == src:
            return 0.0
        if self.node_of(src) == self.node_of(dst):
            with self._lock:
                self._counts["intra_msgs"] += 1
                self._counts["intra_bytes"] += nbytes
            return self.intra_latency + nbytes * self.intra_byte_time
        lat = (
            self.inter_latency if self.inter_latency is not None
            else cost_model.latency
        )
        bt = (
            self.inter_byte_time if self.inter_byte_time is not None
            else cost_model.byte_time
        )
        if self.rack_of(src) == self.rack_of(dst):
            with self._lock:
                self._counts["uplink_msgs"] += 1
                self._counts["uplink_bytes"] += nbytes
            return lat + nbytes * bt
        s_lat = self.spine_latency if self.spine_latency is not None else 2.0 * lat
        extra = nbytes * bt * (self.oversubscription - 1.0)
        with self._lock:
            self._counts["uplink_msgs"] += 1
            self._counts["uplink_bytes"] += nbytes
            self._counts["spine_msgs"] += 1
            self._counts["spine_bytes"] += nbytes
            self._counts["extra_seconds"] += extra
        return s_lat + nbytes * bt + extra

    # -- observability -----------------------------------------------------

    def stats(self) -> dict[str, float]:
        with self._lock:
            return dict(self._counts)

    def reset_stats(self) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] = type(self._counts[key])()


def multi_node(
    ranks_per_node: int,
    *,
    intra_latency: float = INTRA_NODE_LATENCY,
    intra_byte_time: float = INTRA_NODE_BYTE_TIME,
    inter_latency: float | None = None,
    inter_byte_time: float | None = None,
) -> HierarchicalTopology:
    """Nodes of ``ranks_per_node`` ranks inside one rack: fast intra-node
    links, the run's cost-model parameters between nodes."""
    return HierarchicalTopology(
        ranks_per_node,
        intra_latency=intra_latency,
        intra_byte_time=intra_byte_time,
        inter_latency=inter_latency,
        inter_byte_time=inter_byte_time,
        kind="multi_node",
        signature=f"multi_node:{int(ranks_per_node)}",
    )


def fat_tree(
    ranks_per_node: int,
    nodes_per_rack: int,
    *,
    oversubscription: float = 2.0,
    intra_latency: float = INTRA_NODE_LATENCY,
    intra_byte_time: float = INTRA_NODE_BYTE_TIME,
    inter_latency: float | None = None,
    inter_byte_time: float | None = None,
    spine_latency: float | None = None,
) -> HierarchicalTopology:
    """Three tiers: node, rack (ToR), spine.  Inter-rack traffic pays two
    extra switch hops of latency and an ``oversubscription`` multiplier
    on per-byte time (the classic tapered fat tree)."""
    return HierarchicalTopology(
        ranks_per_node,
        nodes_per_rack=nodes_per_rack,
        intra_latency=intra_latency,
        intra_byte_time=intra_byte_time,
        inter_latency=inter_latency,
        inter_byte_time=inter_byte_time,
        spine_latency=spine_latency,
        oversubscription=oversubscription,
        kind="fat_tree",
        signature=(
            f"fat_tree:{int(ranks_per_node)}x{int(nodes_per_rack)}"
            f":o{oversubscription:g}"
        ),
    )


def parse_topology(spec: str) -> Topology:
    """Build a topology from a CLI spec string.

    ``"flat"``; ``"multi_node:R"`` (R ranks per node);
    ``"fat_tree:RxN"`` or ``"fat_tree:RxNxO"`` (R ranks/node, N
    nodes/rack, oversubscription O, default 2).
    """
    spec = spec.strip()
    if spec in ("flat", ""):
        return FLAT
    name, _, arg = spec.partition(":")
    try:
        if name == "multi_node" and arg:
            return multi_node(int(arg))
        if name == "fat_tree" and arg:
            parts = arg.split("x")
            if len(parts) == 2:
                return fat_tree(int(parts[0]), int(parts[1]))
            if len(parts) == 3:
                return fat_tree(
                    int(parts[0]), int(parts[1]),
                    oversubscription=float(parts[2]),
                )
    except ValueError as exc:
        raise ValueError(f"bad topology spec {spec!r}: {exc}") from None
    raise ValueError(
        f"unknown topology spec {spec!r}; expected 'flat', 'multi_node:R' "
        "or 'fat_tree:RxN[xO]'"
    )
