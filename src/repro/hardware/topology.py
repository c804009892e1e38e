"""Interconnect topologies and their collective bandwidths.

The testbed's "150 GB/s peak ring all-reduce bandwidth" (Section 4.3.1)
is a *derived* number: four fully connected GPUs with 100 GB/s
bidirectional (50 GB/s per direction) Infinity Fabric links can embed
three edge-disjoint rings, each streaming at 50 GB/s.  This module makes
that derivation explicit for the common accelerator fabrics, so clusters
can be built from physical link parameters instead of a quoted aggregate:

* **fully connected** -- every pair linked; N-1 edge-disjoint rings.
* **ring** -- each device two neighbours; 2 unidirectional rings.
* **2D torus** -- four neighbours; 4 ring embeddings.
* **switch** -- one uplink per device; ring bandwidth equals the uplink,
  and the switch can host in-network reduction (the paper's Technique 2,
  which is "limited to topologies with switches").
"""

from __future__ import annotations

import enum
import math

from repro._frozen import Frozen
from repro.hardware.cluster import ClusterSpec
from repro.hardware.collectives import AllReduceAlgorithm
from repro.hardware.network import Link
from repro.hardware.specs import DeviceSpec, MI210

__all__ = ["TopologyKind", "Topology", "MI210_NODE_TOPOLOGY",
           "cluster_from_topology"]


class TopologyKind(enum.Enum):
    """Physical interconnect shapes."""

    FULLY_CONNECTED = "fully-connected"
    RING = "ring"
    TORUS_2D = "2d-torus"
    SWITCH = "switch"


class Topology(Frozen):
    """A node/pod interconnect description.

    Attributes:
        kind: Topology shape.
        num_devices: Devices in the group.
        link_bandwidth: Per-link, per-direction bandwidth, bytes/s.
        link_latency: Per-hop latency, seconds.
    """

    __slots__ = ("kind", "num_devices", "link_bandwidth", "link_latency")

    kind: TopologyKind
    num_devices: int
    link_bandwidth: float
    link_latency: float

    def __init__(self, kind: TopologyKind, num_devices: int,
                 link_bandwidth: float, link_latency: float = 1e-6) -> None:
        self._set(kind=kind, num_devices=num_devices,
                  link_bandwidth=link_bandwidth, link_latency=link_latency)
        if self.num_devices < 2:
            raise ValueError("a topology needs at least two devices")
        if self.link_bandwidth <= 0:
            raise ValueError("link_bandwidth must be positive")
        if self.kind is TopologyKind.TORUS_2D:
            side = math.isqrt(self.num_devices)
            if side * side != self.num_devices:
                raise ValueError(
                    "a square 2D torus needs a square device count"
                )

    def ring_count(self) -> int:
        """Edge-disjoint unidirectional rings the topology can embed."""
        if self.kind is TopologyKind.FULLY_CONNECTED:
            return self.num_devices - 1
        if self.kind is TopologyKind.RING:
            return 2  # both directions
        if self.kind is TopologyKind.TORUS_2D:
            return 4  # two dimensions x two directions
        return 1  # switch: a single logical ring through the fabric

    def ring_allreduce_bandwidth(self) -> float:
        """Aggregate ring all-reduce bus bandwidth, bytes/s."""
        return self.ring_count() * self.link_bandwidth

    @property
    def supports_in_network_reduction(self) -> bool:
        """Only switched fabrics can reduce in the network (Section 5)."""
        return self.kind is TopologyKind.SWITCH


#: The paper's testbed node: 4 fully connected MI210s, 100 GB/s
#: bidirectional links (50 GB/s per direction) -> 3 rings -> 150 GB/s.
MI210_NODE_TOPOLOGY = Topology(
    kind=TopologyKind.FULLY_CONNECTED,
    num_devices=4,
    link_bandwidth=50e9,
)


def cluster_from_topology(
    topology: Topology,
    device: DeviceSpec = MI210,
    use_in_network: bool = False,
    saturation_half_bytes: float = 1e6,
) -> ClusterSpec:
    """Build a single-group cluster whose intra link is derived from the
    physical topology.

    Args:
        use_in_network: Request switch-based in-network reduction.

    Raises:
        ValueError: if in-network reduction is requested on a topology
            without switches (the paper's stated limitation).
    """
    if use_in_network and not topology.supports_in_network_reduction:
        raise ValueError(
            f"in-network reduction needs a switched topology, not "
            f"{topology.kind.value}"
        )
    link = Link(
        bandwidth=topology.ring_allreduce_bandwidth(),
        latency=topology.link_latency,
        saturation_half_bytes=saturation_half_bytes,
    )
    algorithm = (AllReduceAlgorithm.IN_NETWORK if use_in_network
                 else AllReduceAlgorithm.RING)
    return ClusterSpec(
        device=device,
        devices_per_node=topology.num_devices,
        intra_link=link,
        allreduce_algorithm=algorithm,
    )
