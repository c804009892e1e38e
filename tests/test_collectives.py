"""Tests for repro.hardware.collectives."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import collectives as coll
from repro.hardware.collectives import (
    AllReduceAlgorithm,
    CollectiveTimingModel,
)
from repro.hardware.network import Link, effective_bandwidth

LINK = Link(bandwidth=150e9, latency=1e-6, saturation_half_bytes=1e6)
EXACT = CollectiveTimingModel(jitter_amplitude=0.0)

_sizes = st.integers(min_value=1024, max_value=1 << 30)
_groups = st.sampled_from([2, 4, 8, 16, 64, 256])

ALL_FUNCTIONS = [
    coll.all_reduce_time,
    coll.reduce_scatter_time,
    coll.all_gather_time,
    coll.all_to_all_time,
]


class TestCommonBehaviour:
    @pytest.mark.parametrize("fn", ALL_FUNCTIONS)
    def test_single_device_is_free(self, fn):
        assert fn(1 << 20, 1, LINK) == 0.0

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS)
    def test_rejects_non_positive_size(self, fn):
        with pytest.raises(ValueError, match="positive"):
            fn(0, 4, LINK)

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS)
    def test_rejects_zero_devices(self, fn):
        with pytest.raises(ValueError, match="device"):
            fn(1 << 20, 0, LINK)

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS)
    def test_positive_for_groups(self, fn):
        assert fn(1 << 20, 4, LINK) > 0

    @pytest.mark.parametrize("fn", ALL_FUNCTIONS)
    @given(nbytes=_sizes, n=_groups)
    @settings(max_examples=20)
    def test_monotone_in_size(self, fn, nbytes, n):
        small = fn(nbytes, n, LINK, model=EXACT)
        large = fn(nbytes * 2, n, LINK, model=EXACT)
        assert large > small


class TestRingAllReduce:
    def test_matches_alpha_beta_formula(self):
        nbytes, n = 64 * 1024 * 1024, 4
        bw = effective_bandwidth(LINK, nbytes)
        expected = 2 * (n - 1) * LINK.latency + (
            2 * (n - 1) / n * nbytes / bw * EXACT.ring_overhead(n)
        )
        assert coll.all_reduce_time(nbytes, n, LINK, model=EXACT) == (
            pytest.approx(expected)
        )

    def test_time_saturates_with_group_size(self):
        # Ring traffic scales as 2(N-1)/N -> 2: going 4 -> 256 devices
        # costs well under 2x (plus latency/straggler terms).
        nbytes = 256 * 1024 * 1024
        t4 = coll.all_reduce_time(nbytes, 4, LINK, model=EXACT)
        t256 = coll.all_reduce_time(nbytes, 256, LINK, model=EXACT)
        assert t256 < 3 * t4

    def test_straggler_overhead_grows_with_ring(self):
        assert EXACT.ring_overhead(256) > EXACT.ring_overhead(4) > 1.0

    def test_in_network_beats_ring_for_large_groups(self):
        # PIN moves half the bytes and pays no ring latency chain.
        nbytes = 64 * 1024 * 1024
        ring = coll.all_reduce_time(nbytes, 64, LINK, model=EXACT)
        pin = coll.all_reduce_time(nbytes, 64, LINK,
                                   algorithm=AllReduceAlgorithm.IN_NETWORK,
                                   model=EXACT)
        assert pin < ring / 1.8

    def test_jitter_bounded_and_deterministic(self):
        model = CollectiveTimingModel(jitter_amplitude=0.1)
        base = coll.all_reduce_time(1 << 24, 4, LINK, model=EXACT)
        jittered = coll.all_reduce_time(1 << 24, 4, LINK, model=model)
        assert abs(jittered / base - 1.0) <= 0.1 + 1e-9
        assert jittered == coll.all_reduce_time(1 << 24, 4, LINK,
                                                model=model)


class TestTreeAndAuto:
    def test_tree_wins_small_messages_large_groups(self):
        # Latency-bound regime: log-depth beats the 2(N-1) ring chain.
        nbytes = 256 * 1024
        ring = coll.all_reduce_time(nbytes, 256, LINK, model=EXACT)
        tree = coll.all_reduce_time(nbytes, 256, LINK,
                                    algorithm=AllReduceAlgorithm.TREE,
                                    model=EXACT)
        assert tree < ring / 5

    def test_ring_wins_large_messages_small_groups(self):
        nbytes = 256 * 1024 * 1024
        ring = coll.all_reduce_time(nbytes, 4, LINK, model=EXACT)
        tree = coll.all_reduce_time(nbytes, 4, LINK,
                                    algorithm=AllReduceAlgorithm.TREE,
                                    model=EXACT)
        assert ring < tree

    def test_auto_matches_the_better_algorithm(self):
        for nbytes, n in ((256 * 1024, 256), (256 * 1024 * 1024, 4)):
            ring = coll.all_reduce_time(nbytes, n, LINK, model=EXACT)
            tree = coll.all_reduce_time(nbytes, n, LINK,
                                        algorithm=AllReduceAlgorithm.TREE,
                                        model=EXACT)
            auto = coll.all_reduce_time(nbytes, n, LINK,
                                        algorithm=AllReduceAlgorithm.AUTO,
                                        model=EXACT)
            assert auto == pytest.approx(min(ring, tree))

    def test_auto_never_worse_than_either(self):
        model = CollectiveTimingModel(jitter_amplitude=0.0)
        for mb in (1, 8, 64, 512):
            for n in (2, 8, 64, 256):
                nbytes = mb * 1024 * 1024
                auto = coll.all_reduce_time(
                    nbytes, n, LINK, algorithm=AllReduceAlgorithm.AUTO,
                    model=model,
                )
                ring = coll.all_reduce_time(nbytes, n, LINK, model=model)
                assert auto <= ring + 1e-12


class TestOtherCollectives:
    def test_reduce_scatter_half_of_allreduce_transfer(self):
        # RS moves (N-1)/N vs ring AR's 2(N-1)/N: about half the time for
        # bandwidth-dominated sizes.
        nbytes, n = 1 << 28, 8
        ar = coll.all_reduce_time(nbytes, n, LINK, model=EXACT)
        rs = coll.reduce_scatter_time(nbytes, n, LINK, model=EXACT)
        assert rs == pytest.approx(ar / 2, rel=0.05)

    def test_all_gather_equals_reduce_scatter(self):
        nbytes, n = 1 << 26, 8
        assert coll.all_gather_time(nbytes, n, LINK, model=EXACT) == (
            pytest.approx(coll.reduce_scatter_time(nbytes, n, LINK,
                                                   model=EXACT))
        )

    def test_all_to_all_matches_formula(self):
        nbytes, n = 1 << 26, 16
        bw = effective_bandwidth(LINK, nbytes)
        expected = (n - 1) * LINK.latency + (n - 1) / n * nbytes / bw
        assert coll.all_to_all_time(nbytes, n, LINK, model=EXACT) == (
            pytest.approx(expected)
        )

    def test_p2p(self):
        nbytes = 1 << 24
        bw = effective_bandwidth(LINK, nbytes)
        expected = LINK.latency + nbytes / bw
        assert coll.p2p_time(nbytes, LINK, model=EXACT) == pytest.approx(
            expected
        )

    def test_p2p_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            coll.p2p_time(0, LINK)


class TestModelValidation:
    def test_rejects_non_positive_straggler_half(self):
        with pytest.raises(ValueError, match="straggler"):
            CollectiveTimingModel(straggler_half=0)

    def test_without_jitter_preserves_straggler(self):
        model = CollectiveTimingModel(jitter_amplitude=0.2,
                                      straggler_half=100.0)
        assert model.without_jitter().straggler_half == 100.0
        assert model.without_jitter().jitter_amplitude == 0.0
