"""Tests for repro.sim.serialize (JSON export documents)."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.models.graph import Phase, SubLayer, Trace
from repro.models.moe import MoEConfig, moe_layer_trace
from repro.models.trace import layer_trace, training_trace
from repro.sim import serialize
from repro.sim.executor import execute_trace
from repro.sim.profiler import profile_trace


def _model() -> ModelConfig:
    return ModelConfig(name="ser", hidden=1024, seq_len=512, batch=2,
                       num_layers=2, num_heads=16,
                       precision=Precision.BF16, year=2024)


PARALLEL = ParallelConfig(tp=4, dp=2, pp=1, ep=1)


def _json(data):
    """``data`` after a trip through JSON text."""
    return json.loads(json.dumps(data))


class TestConfigRoundTrips:
    def test_model(self):
        model = _model()
        assert _json(serialize.model_to_dict(model)) == {
            "name": "ser", "hidden": 1024, "seq_len": 512, "batch": 2,
            "num_layers": 2, "num_heads": 16, "ffn_dim": model.ffn_dim,
            "layer_type": model.layer_type.value, "precision": "bf16",
            "year": 2024,
        }

    def test_parallel(self):
        assert _json(serialize.parallel_to_dict(PARALLEL)) == {
            "tp": 4, "dp": 2, "pp": 1, "ep": 1}


class TestTraceRoundTrips:
    def test_training_trace(self):
        trace = training_trace(_model(), PARALLEL)
        data = _json(serialize.trace_to_dict(trace))
        assert data["model"] == serialize.model_to_dict(trace.model)
        assert data["parallel"] == serialize.parallel_to_dict(PARALLEL)
        assert [op["name"] for op in data["ops"]] == [
            op.name for op in trace.ops]
        assert [op["type"] for op in data["ops"]].count("gemm") == len(
            trace.gemms())

    def test_moe_trace(self):
        model = _model()
        parallel = ParallelConfig(tp=4, dp=2, ep=8)
        trace = moe_layer_trace(model, parallel, MoEConfig(num_experts=8))
        data = _json(serialize.trace_to_dict(trace))
        assert [op["collective"] for op in data["ops"]
                if op["type"] == "comm"] == [
            op.collective.value for op in trace.comms()]
        assert "all-to-all" in {op["collective"] for op in data["ops"]
                                if op["type"] == "comm"}

    def test_dict_is_json_serializable(self):
        trace = layer_trace(_model(), PARALLEL)
        json.dumps(serialize.trace_to_dict(trace))

    def test_unknown_op_type_rejected(self):
        alien = SimpleNamespace(name="alien", phase=Phase.FORWARD,
                                sublayer=SubLayer.OTHER, layer=0)
        trace = Trace(model=_model(), parallel=PARALLEL, ops=(alien,))
        with pytest.raises(TypeError, match="unknown op type"):
            serialize.trace_to_dict(trace)


class TestProfileAndBreakdown:
    def test_profile_round_trip(self, cluster):
        profile = profile_trace(layer_trace(_model(), PARALLEL), cluster)
        records = _json(serialize.profile_to_dict(profile))["records"]
        assert [r["name"] for r in records] == [
            r.name for r in profile.records]
        assert sum(r["duration"] for r in records) == profile.total_time

    def test_breakdown_round_trip(self, cluster):
        breakdown = execute_trace(layer_trace(_model(), PARALLEL),
                                  cluster).breakdown
        assert _json(serialize.breakdown_to_dict(breakdown)) == {
            "compute_time": breakdown.compute_time,
            "serialized_comm_time": breakdown.serialized_comm_time,
            "overlapped_comm_time": breakdown.overlapped_comm_time,
            "iteration_time": breakdown.iteration_time,
        }


class TestFiles:
    def test_save_and_load(self, tmp_path, cluster):
        trace = layer_trace(_model(), PARALLEL)
        target = tmp_path / "trace.json"
        data = serialize.trace_to_dict(trace)
        serialize.save_json(data, target)
        assert json.loads(target.read_text(encoding="utf-8")) == _json(data)
