"""Cluster topology: nodes, links, and hierarchical collectives.

Models the paper's system setups:

* the measured testbed -- a single node of four fully connected MI210 GPUs
  whose Infinity Fabric rings give 150 GB/s peak ring all-reduce bandwidth
  (Section 4.3.1, Figure 9(a)), and
* the multi-node setups the paper extrapolates to (Section 4.3.7), where
  inter-node links are ~8x slower than intra-node links and concurrent
  compute can slow overlapped communication through interference.

Communication groups that fit in one node use the intra-node ring; larger
groups use a hierarchical reduce-scatter / inter-node all-reduce /
all-gather decomposition.
"""

from __future__ import annotations

from typing import Optional

from repro._frozen import Frozen
from repro.hardware import collectives
from repro.hardware.collectives import (
    AllReduceAlgorithm,
    CollectiveTimingModel,
    DEFAULT_COLLECTIVE_MODEL,
)
from repro.hardware.network import Link
from repro.hardware.specs import DeviceSpec, MI210

__all__ = ["ClusterSpec", "mi210_node", "multi_node_cluster"]

#: The paper cites an ~8x combined slowdown for inter-node overlapped
#: communication (Section 4.3.7, citing Rashidi et al.).
DEFAULT_INTER_NODE_SLOWDOWN = 8.0

#: The testbed's intra-node ring (the default ``intra_link``).
_MI210_RING = Link(bandwidth=MI210.ring_allreduce_bw)


class ClusterSpec(Frozen):
    """A training cluster: devices grouped into nodes.

    Attributes:
        device: The accelerator populating every slot.
        devices_per_node: GPUs per node (the testbed has 4).
        intra_link: Ring-aggregate link inside one node.
        inter_link: Per-node link between nodes.  When None, groups larger
            than one node still use the intra-node link -- the paper's
            *optimistic* estimate of large-group communication using
            intra-node bandwidths (Section 4.3.2); configure an inter-node
            link to model the pessimistic multi-node case (Section 4.3.7).
        allreduce_algorithm: Software ring or in-network reduction.
        comm_interference_slowdown: Multiplier applied to *overlapped*
            communication to model contention with concurrent compute
            (1.0 = no interference; Section 4.3.7 scenario uses > 1).
        collective_model: Jitter/calibration parameters for collectives.
    """

    __slots__ = ("device", "devices_per_node", "intra_link", "inter_link",
                 "allreduce_algorithm", "comm_interference_slowdown",
                 "collective_model")

    device: DeviceSpec
    devices_per_node: int
    intra_link: Link
    inter_link: Optional[Link]
    allreduce_algorithm: AllReduceAlgorithm
    comm_interference_slowdown: float
    collective_model: CollectiveTimingModel

    def __init__(self, device: DeviceSpec = MI210,
                 devices_per_node: int = 4,
                 intra_link: Link = _MI210_RING,
                 inter_link: Optional[Link] = None,
                 allreduce_algorithm: AllReduceAlgorithm = (
                     AllReduceAlgorithm.RING),
                 comm_interference_slowdown: float = 1.0,
                 collective_model: CollectiveTimingModel = (
                     DEFAULT_COLLECTIVE_MODEL)) -> None:
        if devices_per_node < 1:
            raise ValueError("devices_per_node must be >= 1")
        if comm_interference_slowdown < 1.0:
            raise ValueError("interference slowdown must be >= 1")
        self._set(device=device, devices_per_node=devices_per_node,
                  intra_link=intra_link, inter_link=inter_link,
                  allreduce_algorithm=allreduce_algorithm,
                  comm_interference_slowdown=comm_interference_slowdown,
                  collective_model=collective_model)

    def is_single_node(self, group_size: int) -> bool:
        """Whether a group fits one node, or no inter-node link is modeled
        (the optimistic flat-topology assumption; see ``inter_link``)."""
        return group_size <= self.devices_per_node or self.inter_link is None

    def all_reduce_time(self, nbytes: float, group_size: int,
                        overlapped: bool = False) -> float:
        """All-reduce time for a group of ``group_size`` devices.

        Single-node groups ring-reduce over the intra-node link.  Larger
        groups decompose hierarchically: intra-node reduce-scatter, then an
        inter-node all-reduce of the per-device shard, then an intra-node
        all-gather.

        Args:
            overlapped: Apply the interference slowdown -- use for DP
                gradient all-reduces that run concurrently with compute.
        """
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if group_size == 1 or nbytes <= 0:
            return 0.0
        if self.is_single_node(group_size):
            base = collectives.all_reduce_time(
                nbytes, group_size, self.intra_link,
                algorithm=self.allreduce_algorithm,
                model=self.collective_model,
            )
        else:
            inter = self.inter_link
            local = self.devices_per_node
            nodes = -(-group_size // local)  # ceil division
            shard = nbytes / local
            base = (
                collectives.reduce_scatter_time(
                    nbytes, local, self.intra_link, model=self.collective_model
                )
                + collectives.all_reduce_time(
                    shard, nodes, inter,
                    algorithm=self.allreduce_algorithm,
                    model=self.collective_model,
                )
                + collectives.all_gather_time(
                    nbytes, local, self.intra_link, model=self.collective_model
                )
            )
        if overlapped:
            base *= self.comm_interference_slowdown
        return base

    def all_to_all_time(self, nbytes: float, group_size: int) -> float:
        """All-to-all time (expert parallelism), same node dispatch rule."""
        if group_size <= 1 or nbytes <= 0:
            return 0.0
        link = self.intra_link if self.is_single_node(group_size) else (
            self.inter_link
        )
        return collectives.all_to_all_time(nbytes, group_size, link,
                                           model=self.collective_model)

    def link_for_group(self, group_size: int) -> Link:
        """The link a single-level collective over ``group_size`` uses."""
        if self.is_single_node(group_size):
            return self.intra_link
        return self.inter_link

    def p2p_time(self, nbytes: float, cross_node: bool = False) -> float:
        """Point-to-point transfer time (pipeline stage boundaries)."""
        if nbytes <= 0:
            return 0.0
        if cross_node and self.inter_link is not None:
            link = self.inter_link
        else:
            link = self.intra_link
        return collectives.p2p_time(nbytes, link, model=self.collective_model)

    def scaled(self, compute_scale: float = 1.0, network_scale: float = 1.0
               ) -> "ClusterSpec":
        """Cluster on evolved hardware (Section 4.3.6).

        Scales device compute throughput and all link bandwidths
        independently -- the flop-vs-bw scenarios use
        ``compute_scale > network_scale``.
        """
        return self.replace(
            device=self.device.scaled(compute_scale=compute_scale,
                                      network_scale=network_scale),
            intra_link=self.intra_link.scaled(network_scale),
            inter_link=(self.inter_link.scaled(network_scale)
                        if self.inter_link is not None else None),
        )

    def with_interference(self, slowdown: float) -> "ClusterSpec":
        """Copy with a different overlapped-comm interference slowdown."""
        return self.replace(comm_interference_slowdown=slowdown)


def mi210_node(jitter: bool = True) -> ClusterSpec:
    """The paper's measured testbed: one node of four MI210 GPUs.

    Args:
        jitter: Disable to make collective timing exactly follow the
            alpha-beta model (useful for exactness tests).
    """
    model = DEFAULT_COLLECTIVE_MODEL if jitter else (
        DEFAULT_COLLECTIVE_MODEL.without_jitter()
    )
    return ClusterSpec(device=MI210, devices_per_node=4,
                       collective_model=model)


def multi_node_cluster(
    device: DeviceSpec = MI210,
    devices_per_node: int = 4,
    inter_node_slowdown: float = DEFAULT_INTER_NODE_SLOWDOWN,
    interference_slowdown: float = 1.0,
) -> ClusterSpec:
    """A multi-node cluster with slower inter-node links (Section 4.3.7).

    Args:
        inter_node_slowdown: Ratio of intra-node to inter-node bandwidth
            (the paper's cited combined factor is ~8x).
        interference_slowdown: Extra slowdown applied to overlapped
            communication from compute/comm contention.
    """
    if inter_node_slowdown < 1:
        raise ValueError("inter_node_slowdown must be >= 1")
    intra = Link(bandwidth=device.ring_allreduce_bw)
    inter = Link(
        bandwidth=device.ring_allreduce_bw / inter_node_slowdown,
        latency=5e-5,
    )
    return ClusterSpec(
        device=device,
        devices_per_node=devices_per_node,
        intra_link=intra,
        inter_link=inter,
        comm_interference_slowdown=interference_slowdown,
    )
