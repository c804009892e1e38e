"""Tests for repro.core.roi (ROI extraction, Step 2a)."""

from __future__ import annotations

import pytest

from repro.core import roi
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.graph import Phase
from repro.models.trace import layer_trace


def _model(hidden=2048, seq_len=1024, batch=1) -> ModelConfig:
    return ModelConfig(name="m", hidden=hidden, seq_len=seq_len,
                       batch=batch, num_heads=16)


TP4_DP4 = ParallelConfig(tp=4, dp=4)


class TestExtraction:
    def test_compute_ops_are_backward_weight_gemms(self):
        trace = layer_trace(_model(), TP4_DP4)
        extracted = roi.extract_overlap_roi(trace)
        assert extracted.compute_ops
        for op in extracted.compute_ops:
            assert op.phase is Phase.BACKWARD
            assert op.has_weights
            assert op.name.endswith((".ig", ".wg"))

    def test_attention_score_gemms_excluded(self):
        trace = layer_trace(_model(), TP4_DP4)
        extracted = roi.extract_overlap_roi(trace)
        names = {op.name for op in extracted.compute_ops}
        assert not any("scores" in name or "context" in name
                       for name in names)

    def test_comm_ops_are_gradient_all_reduces(self):
        trace = layer_trace(_model(), TP4_DP4)
        extracted = roi.extract_overlap_roi(trace)
        assert {op.name for op in extracted.comm_ops} == {
            "fc.grad_ar", "attention.grad_ar"
        }

    def test_eight_weight_gemm_pairs(self):
        # qkv, out_proj, fc1, fc2 -> 4 forward GEMMs -> 8 backward GEMMs.
        trace = layer_trace(_model(), TP4_DP4)
        assert len(roi.extract_overlap_roi(trace).compute_ops) == 8

    def test_requires_data_parallelism(self):
        trace = layer_trace(_model(), ParallelConfig(tp=4, dp=1))
        with pytest.raises(ValueError, match="data-parallel"):
            roi.extract_overlap_roi(trace)


class TestTiming:
    def test_timing_positive(self, cluster):
        timing = roi.overlap_roi_timing(_model(), TP4_DP4, cluster)
        assert timing.compute_time > 0
        assert timing.comm_time > 0

    def test_ratio_definition(self, cluster):
        timing = roi.overlap_roi_timing(_model(), TP4_DP4, cluster)
        assert timing.overlapped_pct_of_compute == pytest.approx(
            timing.comm_time / timing.compute_time
        )

    def test_hidden_and_slack_consistency(self, cluster):
        timing = roi.overlap_roi_timing(_model(), TP4_DP4, cluster)
        assert timing.fully_hidden == (
            timing.overlapped_pct_of_compute <= 1.0)

    def test_slack_grows_with_slb(self, cluster):
        # Equation 9: larger SL * B means more compute per gradient byte.
        small = roi.overlap_roi_timing(_model(seq_len=1024), TP4_DP4,
                                       cluster)
        large = roi.overlap_roi_timing(_model(seq_len=8192), TP4_DP4,
                                       cluster)
        assert large.overlapped_pct_of_compute < (
            small.overlapped_pct_of_compute
        )


class TestProfilingSpeedup:
    def test_roi_cheaper_than_full_iteration(self, cluster):
        trace = layer_trace(_model(), TP4_DP4)
        speedup = roi.roi_profiling_speedup(trace, cluster)
        # The ROI skips the forward pass and attention backward GEMMs;
        # the paper reports ~1.5x.
        assert speedup > 1.2

    def test_speedup_needs_dp(self, cluster):
        trace = layer_trace(_model(), ParallelConfig(tp=4, dp=1))
        with pytest.raises(ValueError, match="data-parallel"):
            roi.roi_profiling_speedup(trace, cluster)
