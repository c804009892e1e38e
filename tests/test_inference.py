"""Tests for repro.models.inference (autoregressive decoding)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.graph import CommOp, GemmOp
from repro.models.inference import decode_step_trace, kv_cache_bytes
from repro.sim.executor import execute_trace


def _model(layers=4) -> ModelConfig:
    return ModelConfig(name="m", hidden=4096, seq_len=2048, batch=1,
                       num_layers=layers, num_heads=32)


TP8 = ParallelConfig(tp=8, dp=1)


class TestKvCache:
    def test_formula(self):
        model = _model(layers=2)
        expected = 2 * 2 * 1 * 1024 * (4096 // 8) * 2
        assert kv_cache_bytes(model, TP8, 1024) == expected

    def test_shards_by_tp(self):
        model = _model()
        assert kv_cache_bytes(model, ParallelConfig(tp=1), 1024) == (
            8 * kv_cache_bytes(model, TP8, 1024)
        )

    def test_rejects_bad_context(self):
        with pytest.raises(ValueError, match="context"):
            kv_cache_bytes(_model(), TP8, 0)


class TestDecodeTrace:
    def test_all_gemms_single_row(self):
        trace = decode_step_trace(_model(), TP8, 2048)
        for op in trace.gemms():
            assert op.shape.m in (1, _model().batch)

    def test_two_all_reduces_per_layer_of_bh_bytes(self):
        model = _model(layers=3)
        trace = decode_step_trace(model, TP8, 2048)
        ars = [op for op in trace.comms() if not op.overlappable]
        assert len(ars) == 2 * 3
        for op in ars:
            assert op.nbytes == model.precision.bytes * model.hidden

    def test_no_tp_no_comm(self):
        trace = decode_step_trace(_model(), ParallelConfig(tp=1), 2048)
        assert trace.comms() == []

    def test_score_gemms_scale_with_context(self):
        short = decode_step_trace(_model(), TP8, 512)
        long = decode_step_trace(_model(), TP8, 4096)
        score_flops_short = sum(op.flops for op in short.gemms()
                                if not op.has_weights)
        score_flops_long = sum(op.flops for op in long.gemms()
                               if not op.has_weights)
        assert score_flops_long == 8 * score_flops_short

    def test_rejects_bad_context(self):
        with pytest.raises(ValueError, match="context"):
            decode_step_trace(_model(), TP8, 0)


class TestDecodeBehaviour:
    def test_decode_memory_bound_latency(self, cluster):
        # Per-token time tracks streaming the (TP-sharded) weights from
        # HBM: within a small factor of the pure weight-read time.
        model = _model(layers=4)
        trace = decode_step_trace(model, TP8, 2048)
        breakdown = execute_trace(trace, cluster).breakdown
        weight_bytes = (model.total_params() // TP8.tp
                        * model.precision.bytes)
        floor = weight_bytes / cluster.device.mem_bw
        assert floor < breakdown.compute_time < 8 * floor

    def test_comm_fraction_grows_with_tp(self, cluster):
        model = ModelConfig(name="m", hidden=4096, seq_len=2048, batch=1,
                            num_layers=4, num_heads=64)
        fractions = []
        for tp in (2, 8, 32):
            trace = decode_step_trace(model, ParallelConfig(tp=tp), 2048)
            fractions.append(
                execute_trace(trace, cluster).breakdown
                .serialized_comm_fraction
            )
        assert fractions == sorted(fractions)

    def test_tp_throughput_saturates(self, cluster):
        # Doubling TP at high degrees yields much less than 2x speedup.
        model = ModelConfig(name="m", hidden=4096, seq_len=2048, batch=1,
                            num_layers=4, num_heads=64)
        def latency(tp):
            trace = decode_step_trace(model, ParallelConfig(tp=tp), 2048)
            return execute_trace(trace, cluster).breakdown.iteration_time
        low_gain = latency(2) / latency(4)
        high_gain = latency(16) / latency(32)
        assert low_gain > high_gain
        assert high_gain < 1.6
