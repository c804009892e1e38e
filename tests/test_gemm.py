"""Tests for repro.hardware.gemm (GEMM timing model)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperparams import Precision
from repro.hardware.gemm import (
    DEFAULT_GEMM_MODEL,
    GemmShape,
    GemmTimingModel,
    stable_unit_hash,
)
from repro.hardware.specs import MI210

_dims = st.integers(min_value=1, max_value=65536)


class TestGemmShape:
    def test_flops_convention(self):
        shape = GemmShape(m=128, n=256, k=512)
        assert shape.flops == 2 * 128 * 256 * 512

    def test_batched_flops(self):
        shape = GemmShape(m=128, n=256, k=512, batch=8)
        assert shape.flops == 8 * 2 * 128 * 256 * 512

    def test_bytes_moved(self):
        shape = GemmShape(m=4, n=8, k=16)
        expected = Precision.FP16.bytes * (4 * 16 + 16 * 8 + 4 * 8)
        assert shape.bytes_moved(Precision.FP16) == expected

    @pytest.mark.parametrize("field", ["m", "n", "k", "batch"])
    def test_rejects_non_positive_dims(self, field):
        params = dict(m=64, n=64, k=64, batch=1)
        params[field] = 0
        with pytest.raises(ValueError, match=field):
            GemmShape(**params)

    @given(m=_dims, n=_dims, k=_dims)
    @settings(max_examples=30)
    def test_flops_positive(self, m, n, k):
        assert GemmShape(m=m, n=n, k=k).flops > 0


class TestStableHash:
    def test_deterministic(self):
        assert stable_unit_hash("a", 1, 2) == stable_unit_hash("a", 1, 2)

    def test_in_unit_interval(self):
        for key in range(100):
            value = stable_unit_hash("probe", key)
            assert 0.0 <= value < 1.0

    def test_distinguishes_keys(self):
        values = {stable_unit_hash("probe", key) for key in range(64)}
        assert len(values) > 32  # no gross collisions


class TestEfficiency:
    def test_bounded_by_peak(self):
        shape = GemmShape(m=8192, n=8192, k=8192)
        eff = DEFAULT_GEMM_MODEL.compute_efficiency(shape, MI210)
        assert 0.0 < eff <= MI210.peak_compute_efficiency

    def test_large_square_gemms_near_peak(self):
        # GShard-style: large compute-bound GEMMs achieve > 85% of the
        # model's peak efficiency ceiling.
        shape = GemmShape(m=16384, n=16384, k=16384)
        eff = DEFAULT_GEMM_MODEL.compute_efficiency(shape, MI210)
        assert eff > 0.8 * MI210.peak_compute_efficiency

    def test_small_gemms_lose_efficiency(self):
        small = DEFAULT_GEMM_MODEL.compute_efficiency(
            GemmShape(m=64, n=64, k=64), MI210
        )
        large = DEFAULT_GEMM_MODEL.compute_efficiency(
            GemmShape(m=8192, n=8192, k=8192), MI210
        )
        assert small < large / 2

    def test_split_k_rescues_skinny_deep_gemms(self):
        # A 1-tile output with deep K must beat the same shape with
        # split-K disabled (emulated via a huge SPLIT_K_MIN).
        shape = GemmShape(m=128, n=128, k=16384)
        with_split = DEFAULT_GEMM_MODEL.compute_efficiency(shape, MI210)
        no_split = GemmTimingModel(jitter_amplitude=0.0)
        object.__setattr__(no_split, "SPLIT_K_MIN", 1 << 40)
        without_split = no_split.compute_efficiency(shape, MI210)
        assert with_split > without_split

    @given(k=st.sampled_from([64, 256, 1024, 4096, 16384]))
    @settings(max_examples=10)
    def test_efficiency_monotone_in_k_for_wide_gemms(self, k):
        model = DEFAULT_GEMM_MODEL
        eff_small = model.compute_efficiency(
            GemmShape(m=4096, n=4096, k=max(32, k // 2)), MI210
        )
        eff = model.compute_efficiency(GemmShape(m=4096, n=4096, k=k), MI210)
        assert eff >= eff_small * 0.999


class TestTiming:
    def test_time_positive_and_finite(self):
        t = DEFAULT_GEMM_MODEL.time(GemmShape(m=1024, n=1024, k=1024), MI210,
                                    Precision.FP16)
        assert 0 < t < 1.0

    def test_jitterless_matches_roofline(self):
        model = DEFAULT_GEMM_MODEL.without_jitter()
        shape = GemmShape(m=4096, n=4096, k=4096)
        eff = model.compute_efficiency(shape, MI210)
        expected = max(
            shape.flops / (MI210.flops(Precision.FP16) * eff),
            shape.bytes_moved(Precision.FP16)
            / (MI210.mem_bw * MI210.peak_memory_efficiency),
        ) + MI210.compute_launch_overhead
        assert model.time(shape, MI210, Precision.FP16) == pytest.approx(
            expected
        )

    def test_jitter_bounded(self):
        amp = DEFAULT_GEMM_MODEL.jitter_amplitude
        for m in (128, 256, 512, 1024, 2048):
            shape = GemmShape(m=m, n=512, k=512)
            ratio = DEFAULT_GEMM_MODEL.time(shape, MI210, Precision.FP16) / (
                DEFAULT_GEMM_MODEL.without_jitter().time(shape, MI210,
                                                         Precision.FP16)
            )
            assert 1 - amp <= ratio <= 1 + amp

    def test_jitter_deterministic_across_calls(self):
        shape = GemmShape(m=777, n=333, k=555)
        first = DEFAULT_GEMM_MODEL.time(shape, MI210, Precision.FP16)
        second = DEFAULT_GEMM_MODEL.time(shape, MI210, Precision.FP16)
        assert first == second

    def test_tiny_gemm_dominated_by_launch_overhead(self):
        t = DEFAULT_GEMM_MODEL.without_jitter().time(
            GemmShape(m=1, n=1, k=1), MI210, Precision.FP16)
        assert t >= MI210.compute_launch_overhead

    def test_fp16_faster_than_fp32(self):
        shape = GemmShape(m=8192, n=8192, k=8192)
        model = DEFAULT_GEMM_MODEL.without_jitter()
        assert model.time(shape, MI210, Precision.FP16) < model.time(
            shape, MI210, Precision.FP32
        )

    @given(scale=st.sampled_from([2, 4, 8]))
    @settings(max_examples=10)
    def test_time_roughly_linear_in_m_for_large_gemms(self, scale):
        model = DEFAULT_GEMM_MODEL.without_jitter()
        base = model.time(GemmShape(m=2048, n=4096, k=4096), MI210,
                          Precision.FP16)
        scaled = model.time(GemmShape(m=2048 * scale, n=4096, k=4096),
                            MI210, Precision.FP16)
        assert scaled / base == pytest.approx(scale, rel=0.15)

    def test_memory_bound_when_k_is_one(self):
        # A rank-1 update moves far more bytes per flop than peak compute
        # can hide: the roofline must sit on the memory side.
        model = DEFAULT_GEMM_MODEL.without_jitter()
        shape = GemmShape(m=8192, n=8192, k=1)
        t_memory = shape.bytes_moved(Precision.FP16) / (
            MI210.mem_bw * MI210.peak_memory_efficiency
        )
        assert model.time(shape, MI210, Precision.FP16) == pytest.approx(
            t_memory + MI210.compute_launch_overhead
        )
