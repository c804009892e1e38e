"""Tests for repro.hardware.elementwise (bandwidth-bound kernels)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.hardware.cluster import mi210_node
from repro.hardware.elementwise import (
    DEFAULT_ELEMENTWISE_MODEL,
    ElementwiseTimingModel,
)
from repro.hardware.specs import MI210
from repro.models.graph import ElementwiseOp
from repro.models.trace import layer_trace
from repro.sim.executor import op_duration

MODEL = DEFAULT_ELEMENTWISE_MODEL


class TestValidation:
    def test_rejects_non_positive_elements(self):
        with pytest.raises(ValueError, match="elements"):
            MODEL.time(0, MI210, Precision.FP16)

    def test_rejects_non_positive_rw_factor(self):
        with pytest.raises(ValueError, match="rw_factor"):
            MODEL.time(1024, MI210, Precision.FP16, rw_factor=0)


class TestTiming:
    def test_positive(self):
        assert MODEL.time(1 << 20, MI210, Precision.FP16) > 0

    def test_monotone_in_elements(self):
        model = DEFAULT_ELEMENTWISE_MODEL.without_jitter()
        times = [model.time(n, MI210, Precision.FP16)
                 for n in (1 << 16, 1 << 20, 1 << 24, 1 << 28)]
        assert times == sorted(times)
        assert times[0] < times[-1]

    def test_large_kernels_scale_linearly(self):
        model = DEFAULT_ELEMENTWISE_MODEL.without_jitter()
        base = model.time(1 << 26, MI210, Precision.FP16)
        doubled = model.time(1 << 27, MI210, Precision.FP16)
        assert doubled / base == pytest.approx(2.0, rel=0.05)

    def test_small_kernels_underutilize_bandwidth(self):
        # Sub-linear cost growth at small sizes (Section 4.3.5 effect).
        model = DEFAULT_ELEMENTWISE_MODEL.without_jitter()
        small = model.time(1 << 14, MI210, Precision.FP16)
        large = model.time(1 << 18, MI210, Precision.FP16)
        assert large / small < 16  # 16x elements, far less than 16x time

    def test_rw_factor_scales_traffic(self):
        model = DEFAULT_ELEMENTWISE_MODEL.without_jitter()
        light = model.time(1 << 26, MI210, Precision.FP16, rw_factor=2.0)
        heavy = model.time(1 << 26, MI210, Precision.FP16, rw_factor=4.0)
        assert heavy > light

    def test_jitter_keyed_by_kind(self):
        a = MODEL.time(1 << 20, MI210, Precision.FP16, kind="gelu")
        b = MODEL.time(1 << 20, MI210, Precision.FP16, kind="softmax")
        assert a != b

    def test_jitter_deterministic(self):
        assert MODEL.time(12345, MI210, Precision.FP16) == (
            MODEL.time(12345, MI210, Precision.FP16)
        )

    @given(elements=st.integers(min_value=1, max_value=1 << 30))
    @settings(max_examples=30)
    def test_never_below_launch_overhead(self, elements):
        model = DEFAULT_ELEMENTWISE_MODEL.without_jitter()
        assert model.time(elements, MI210, Precision.FP16) >= (
            MI210.compute_launch_overhead
        )


class TestLayerNorm:
    def test_linear_in_sl_and_h_for_large_sizes(self):
        model = DEFAULT_ELEMENTWISE_MODEL.without_jitter()

        def layernorm(batch, seq_len, hidden):
            return model.time(batch * seq_len * hidden, MI210,
                              Precision.FP16, kind="layernorm")

        base = layernorm(4, 2048, 4096)
        double_sl = layernorm(4, 4096, 4096)
        double_h = layernorm(4, 2048, 8192)
        assert double_sl / base == pytest.approx(2.0, rel=0.1)
        assert double_h / base == pytest.approx(2.0, rel=0.1)

    def test_matches_elementwise_with_ln_kind(self):
        # The executor times a trace's LayerNorm as a B*SL*H element-wise
        # kernel of kind "layernorm".
        model = ModelConfig(name="m", hidden=1024, seq_len=512, batch=2,
                            num_heads=16)
        trace = layer_trace(model, ParallelConfig(tp=1))
        norms = [op for op in trace if isinstance(op, ElementwiseOp)
                 and op.kind == "layernorm"]
        assert norms
        for op in norms:
            assert op_duration(op, trace, mi210_node()) == MODEL.time(
                2 * 512 * 1024, MI210, Precision.FP16, rw_factor=3.0,
                kind="layernorm")
