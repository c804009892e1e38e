"""Tests for repro.core.edge and repro.core.slack."""

from __future__ import annotations

import pytest

from repro.core import edge, flops, slack
from repro.core.hyperparams import ModelConfig, ParallelConfig


def _model(hidden=4096, seq_len=1024, batch=2) -> ModelConfig:
    return ModelConfig(name="m", hidden=hidden, seq_len=seq_len,
                       batch=batch, num_heads=32)


class TestAmdahlEdge:
    def test_requires_tensor_parallelism(self):
        with pytest.raises(ValueError, match="tensor-parallel"):
            edge.amdahl_edge(_model(), ParallelConfig(tp=1, dp=4))

    def test_matches_flops_module(self):
        parallel = ParallelConfig(tp=8, dp=1)
        analysis = edge.amdahl_edge(_model(), parallel)
        assert analysis.compute_ops == flops.training_layer_ops(_model(),
                                                                parallel)
        assert analysis.serialized_bytes == flops.serialized_comm_bytes(
            _model(), parallel
        )
        assert analysis.exact_ratio == pytest.approx(
            analysis.compute_ops / analysis.serialized_bytes
        )

    def test_asymptotic_ratio_is_equation_6(self):
        analysis = edge.amdahl_edge(_model(), ParallelConfig(tp=8))
        assert analysis.asymptotic_ratio == (4096 + 1024) / 8

    def test_compute_has_edge_for_realistic_configs(self):
        analysis = edge.amdahl_edge(_model(), ParallelConfig(tp=16))
        # (H + SL) > TP: compute ops outnumber communicated bytes.
        assert analysis.exact_ratio > 1.0

    def test_edge_shrinks_with_tp(self):
        small = edge.amdahl_edge(_model(), ParallelConfig(tp=4))
        large = edge.amdahl_edge(_model(), ParallelConfig(tp=64))
        assert large.exact_ratio < small.exact_ratio

    def test_edge_grows_with_hidden(self):
        small = edge.amdahl_edge(_model(hidden=2048), ParallelConfig(tp=8))
        large = edge.amdahl_edge(_model(hidden=16384), ParallelConfig(tp=8))
        assert large.exact_ratio > small.exact_ratio


class TestEdgeSeries:
    def test_normalized_starts_at_one(self):
        models = [_model(hidden=h) for h in (1024, 4096, 16384)]
        parallels = [ParallelConfig(tp=t) for t in (1, 8, 64)]
        series = edge.edge_series(models, parallels)
        assert series[0] == pytest.approx(1.0)

    def test_accepts_tp_of_one(self):
        # BERT-era models trained without TP still get a series entry.
        series = edge.edge_series([_model()], [ParallelConfig(tp=1)],
                                  normalize=False)
        assert series == [4096 + 1024]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            edge.edge_series([_model()], [])


class TestSlackAdvantage:
    def test_requires_data_parallelism(self):
        with pytest.raises(ValueError, match="data-parallel"):
            slack.slack_advantage(_model(), ParallelConfig(tp=8, dp=1))

    def test_matches_flops_module(self):
        parallel = ParallelConfig(tp=8, dp=4)
        analysis = slack.slack_advantage(_model(), parallel)
        assert analysis.backprop_ops == flops.backward_layer_ops(_model(),
                                                                 parallel)
        assert analysis.overlapped_bytes == flops.layer_weight_grad_bytes(
            _model(), parallel
        )

    def test_asymptotic_ratio_is_equation_9(self):
        analysis = slack.slack_advantage(_model(seq_len=1024, batch=4),
                                         ParallelConfig(dp=4))
        assert analysis.asymptotic_ratio == 4096

    def test_slack_grows_with_batch(self):
        small = slack.slack_advantage(_model(batch=1), ParallelConfig(dp=4))
        large = slack.slack_advantage(_model(batch=8), ParallelConfig(dp=4))
        assert large.exact_ratio == pytest.approx(8 * small.exact_ratio,
                                                  rel=1e-9)

    def test_exact_ratio_independent_of_tp(self):
        # Both backprop ops and gradient bytes shard by TP; ratio holds.
        a = slack.slack_advantage(_model(), ParallelConfig(tp=2, dp=4))
        b = slack.slack_advantage(_model(), ParallelConfig(tp=16, dp=4))
        assert a.exact_ratio == pytest.approx(b.exact_ratio, rel=1e-9)


class TestSlackSeries:
    def test_normalized_to_first(self):
        models = [_model(batch=b) for b in (16, 4, 1)]
        parallels = [ParallelConfig(dp=2)] * 3
        series = slack.slack_series(models, parallels)
        assert series == pytest.approx([1.0, 0.25, 0.0625])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            slack.slack_series([], [ParallelConfig(dp=2)])
