"""Cluster topology: rank placement and link classification.

A :class:`ClusterTopology` is a grid of ``num_nodes`` nodes times
``gpus_per_node`` GPUs.  Global ranks are dense, node-major::

    rank = node_index * gpus_per_node + local_index

The two queries everything else relies on are :meth:`link_class` (does a
rank pair cross the node boundary?) and the sub-ring construction helpers
used by topology-aware ring communication.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from functools import cached_property

from repro.topology.hardware import LinkSpec, NodeSpec, a800_node


class LinkClass(enum.Enum):
    """Classification of a rank-pair connection."""

    LOCAL = "local"  # same GPU (no transfer)
    INTRA = "intra"  # same node, NVLink
    INTER = "inter"  # different nodes, InfiniBand


@dataclass(frozen=True)
class ClusterTopology:
    """A homogeneous multi-node GPU cluster.

    Parameters
    ----------
    num_nodes:
        Number of hosts.
    node:
        Per-host hardware description.  Defaults to the paper's A800 node.
    """

    num_nodes: int
    node: NodeSpec

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.node.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.node.gpus_per_node}"
            )

    # --- basic geometry ---------------------------------------------------

    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    @property
    def world_size(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def local_rank(self, rank: int) -> int:
        self._check_rank(rank)
        return rank % self.gpus_per_node

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")

    # --- link queries -------------------------------------------------------

    @cached_property
    def _links(self) -> tuple[tuple[LinkClass, ...], ...]:
        """``_links[src][dst]`` for every rank pair, built on first use
        (the topology is frozen, so it never goes stale)."""
        g = self.gpus_per_node
        ranks = range(self.world_size)
        return tuple(
            tuple(
                LinkClass.LOCAL if src == dst
                else LinkClass.INTRA if src // g == dst // g
                else LinkClass.INTER
                for dst in ranks
            )
            for src in ranks
        )

    def link_class(self, src: int, dst: int) -> LinkClass:
        """Classify the connection between two global ranks."""
        links = self._links
        if not (0 <= src < len(links) and 0 <= dst < len(links)):
            self._check_rank(src)
            self._check_rank(dst)
        return links[src][dst]

    def link_spec(self, cls: LinkClass) -> LinkSpec:
        if cls is LinkClass.INTRA:
            return self.node.intra_link
        if cls is LinkClass.INTER:
            return self.node.inter_link
        raise ValueError(f"no link spec for {cls}")

    def transfer_time(self, nbytes: float, cls: LinkClass) -> float:
        """Point-to-point time ``latency + nbytes / bandwidth`` for one hop."""
        if cls is LinkClass.LOCAL or nbytes == 0:
            return 0.0
        spec = self.link_spec(cls)
        return spec.latency + nbytes / spec.bandwidth

    # --- ring constructions -------------------------------------------------

    def global_ring(self) -> list[int]:
        """The flat ring ``0 -> 1 -> ... -> G-1 -> 0`` used by RingAttention.

        With node-major rank order, every node boundary crossing in this
        ring is an inter-node hop, so a naive global ring is bottlenecked
        by the slowest (inter-node) link on every step.
        """
        return list(range(self.world_size))

    def intra_node_rings(self) -> list[list[int]]:
        """One sub-ring per node covering that node's local ranks."""
        g = self.gpus_per_node
        return [
            list(range(n * g, (n + 1) * g)) for n in range(self.num_nodes)
        ]

    def inter_node_ring(self, local_index: int = 0) -> list[int]:
        """Ring that connects one representative GPU per node.

        Topology-aware communication runs ``gpus_per_node`` of these in
        parallel (``local_index = 0..g-1``), one per NIC, which is how all
        NICs of a node are saturated simultaneously.
        """
        if not 0 <= local_index < self.gpus_per_node:
            raise ValueError(
                f"local_index {local_index} out of range [0, {self.gpus_per_node})"
            )
        g = self.gpus_per_node
        return [n * g + local_index for n in range(self.num_nodes)]

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"{self.num_nodes} node(s) x {self.gpus_per_node} {self.node.gpu.name} "
            f"({self.node.intra_link.name} intra, {self.node.inter_link.name} x"
            f"{self.node.nics_per_node} inter)"
        )


def shrink_cluster(
    topology: ClusterTopology, failed: "list[int] | tuple[int, ...] | set[int]"
) -> ClusterTopology:
    """Rebuild a topology over the survivors after rank failures.

    Elastic recovery densifies the surviving ranks — identities are
    reassigned ``0..G-k-1`` in the old rank order — and repacks them into
    nodes: the new ``gpus_per_node`` is the largest divisor of the survivor
    count that does not exceed the original node width, so every node stays
    full (the invariant :func:`make_cluster` enforces) while the hardware
    description (links, NICs, GPU spec) carries over unchanged.
    """
    dead = set(failed)
    for r in dead:
        topology._check_rank(r)
    survivors = topology.world_size - len(dead)
    if survivors < 1:
        raise ValueError(
            f"cannot shrink {topology.world_size} ranks by {len(dead)}: "
            "no survivors"
        )
    width = topology.gpus_per_node
    per_node = max(d for d in range(1, width + 1) if survivors % d == 0)
    node = topology.node
    if per_node != node.gpus_per_node:
        node = dataclasses.replace(node, gpus_per_node=per_node)
    return ClusterTopology(num_nodes=survivors // per_node, node=node)


def make_cluster(num_gpus: int, gpus_per_node: int = 8, node: NodeSpec | None = None) -> ClusterTopology:
    """Build a cluster of ``num_gpus`` GPUs packed into full nodes.

    ``num_gpus`` smaller than ``gpus_per_node`` yields a single partial node
    (the single-node scalability setting of Table 5).
    """
    if num_gpus < 1:
        raise ValueError(f"num_gpus must be >= 1, got {num_gpus}")
    if node is None:
        node = a800_node(gpus_per_node=min(gpus_per_node, num_gpus))
    if num_gpus <= node.gpus_per_node:
        num_nodes = 1
        if num_gpus != node.gpus_per_node:
            node = dataclasses.replace(node, gpus_per_node=num_gpus)
    else:
        if num_gpus % node.gpus_per_node != 0:
            raise ValueError(
                f"num_gpus={num_gpus} is not a multiple of gpus_per_node="
                f"{node.gpus_per_node}"
            )
        num_nodes = num_gpus // node.gpus_per_node
    return ClusterTopology(num_nodes=num_nodes, node=node)
