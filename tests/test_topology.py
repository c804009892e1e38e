"""Tests for repro.hardware.topology."""

from __future__ import annotations

import pytest

from repro.hardware.collectives import AllReduceAlgorithm
from repro.hardware.topology import (
    MI210_NODE_TOPOLOGY,
    Topology,
    TopologyKind,
    cluster_from_topology,
)


def _topo(kind, n=16, bw=50e9) -> Topology:
    return Topology(kind=kind, num_devices=n, link_bandwidth=bw)


class TestValidation:
    def test_needs_two_devices(self):
        with pytest.raises(ValueError, match="two devices"):
            _topo(TopologyKind.RING, n=1)

    def test_needs_positive_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            _topo(TopologyKind.RING, bw=0)

    def test_torus_needs_square_count(self):
        with pytest.raises(ValueError, match="square"):
            _topo(TopologyKind.TORUS_2D, n=12)
        _topo(TopologyKind.TORUS_2D, n=16)  # fine


class TestDerivedBandwidths:
    def test_testbed_derivation(self):
        # The paper's quoted 150 GB/s ring all-reduce bandwidth emerges
        # from 3 edge-disjoint rings over 50 GB/s per-direction links.
        assert MI210_NODE_TOPOLOGY.ring_count() == 3
        assert MI210_NODE_TOPOLOGY.ring_allreduce_bandwidth() == (
            pytest.approx(150e9)
        )

    def test_ring_topology_two_directions(self):
        assert _topo(TopologyKind.RING).ring_allreduce_bandwidth() == (
            pytest.approx(100e9)
        )

    def test_torus_four_rings(self):
        assert _topo(TopologyKind.TORUS_2D).ring_allreduce_bandwidth() == (
            pytest.approx(200e9)
        )

    def test_switch_single_uplink(self):
        assert _topo(TopologyKind.SWITCH).ring_allreduce_bandwidth() == (
            pytest.approx(50e9)
        )


class TestClusterBuilding:
    def test_testbed_cluster_matches_quoted_bandwidth(self):
        cluster = cluster_from_topology(MI210_NODE_TOPOLOGY)
        assert cluster.intra_link.bandwidth == pytest.approx(150e9)
        assert cluster.devices_per_node == 4
        assert cluster.allreduce_algorithm is AllReduceAlgorithm.RING

    def test_in_network_only_on_switches(self):
        with pytest.raises(ValueError, match="switched"):
            cluster_from_topology(MI210_NODE_TOPOLOGY, use_in_network=True)
        switched = cluster_from_topology(_topo(TopologyKind.SWITCH),
                                         use_in_network=True)
        assert switched.allreduce_algorithm is AllReduceAlgorithm.IN_NETWORK

    def test_allreduce_time_orders_by_ring_bandwidth(self, exact_cluster):
        nbytes = 256 * 1024 * 1024
        times = {}
        for kind in (TopologyKind.FULLY_CONNECTED, TopologyKind.TORUS_2D,
                     TopologyKind.SWITCH):
            cluster = cluster_from_topology(_topo(kind, n=16))
            times[kind] = cluster.all_reduce_time(nbytes, 16)
        assert times[TopologyKind.FULLY_CONNECTED] < (
            times[TopologyKind.TORUS_2D]
        ) < times[TopologyKind.SWITCH]

    def test_switch_with_pin_beats_switch_ring(self):
        nbytes = 256 * 1024 * 1024
        plain = cluster_from_topology(_topo(TopologyKind.SWITCH, n=16))
        pin = cluster_from_topology(_topo(TopologyKind.SWITCH, n=16),
                                    use_in_network=True)
        assert pin.all_reduce_time(nbytes, 16) < plain.all_reduce_time(
            nbytes, 16
        )
