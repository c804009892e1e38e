"""Tests for repro.core.autotune (parallelism planning)."""

from __future__ import annotations

import pytest

from repro.core import autotune
from repro.core.hyperparams import ModelConfig, ParallelConfig


def _model(**kw) -> ModelConfig:
    params = dict(name="m", hidden=4096, seq_len=1024, batch=4,
                  num_layers=8, num_heads=32)
    params.update(kw)
    return ModelConfig(**params)


class TestEnumeration:
    def test_world_size_validation(self, cluster):
        with pytest.raises(ValueError, match="power of two"):
            autotune.enumerate_plans(_model(), 24, cluster)
        with pytest.raises(ValueError, match="power of two"):
            autotune.enumerate_plans(_model(), 0, cluster)

    def test_microbatch_validation(self, cluster):
        with pytest.raises(ValueError, match="microbatches"):
            autotune.enumerate_plans(_model(batch=4), 16, cluster,
                                     microbatches=3)

    def test_all_plans_use_full_world(self, cluster):
        for plan in autotune.enumerate_plans(_model(), 32, cluster):
            assert plan.parallel.world_size == 32

    def test_plans_respect_shape_constraints(self, cluster):
        for plan in autotune.enumerate_plans(_model(), 64, cluster):
            parallel = plan.parallel
            assert _model().num_heads % parallel.tp == 0
            assert _model().num_layers % parallel.pp == 0

    def test_plans_sorted_by_throughput(self, cluster):
        plans = autotune.enumerate_plans(_model(), 32, cluster)
        throughputs = [p.tokens_per_second for p in plans]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_max_tp_respected(self, cluster):
        plans = autotune.enumerate_plans(_model(), 64, cluster, max_tp=8)
        assert all(p.parallel.tp <= 8 for p in plans)

    def test_memory_filter(self, cluster):
        # A model too large for pure DP on this device must only yield
        # plans with enough TP/PP sharding.
        big = _model(hidden=16384, num_layers=32, num_heads=128)
        plans = autotune.enumerate_plans(big, 64, cluster)
        assert plans
        assert all(p.parallel.tp * p.parallel.pp > 1 for p in plans)
        assert all(p.memory_gb <= cluster.device.mem_capacity / 1e9
                   for p in plans)


class TestBestPlan:
    def test_best_beats_naive_extremes(self, cluster):
        model = _model(num_layers=16, batch=8)
        ranked = autotune.enumerate_plans(model, 64, cluster, microbatches=8)
        best = ranked[0]
        plans = {p.parallel: p for p in ranked}
        all_tp = plans.get(ParallelConfig(tp=32, dp=2, pp=1))
        if all_tp is not None:
            assert best.tokens_per_second >= all_tp.tokens_per_second

    def test_raises_when_nothing_fits(self, cluster):
        huge = _model(hidden=32768, num_layers=8, num_heads=16)
        # num_heads=16 caps TP at 16; 8 layers cap PP at 8; one layer of
        # H=32K with only TP=16 sharding cannot fit alongside optimizer
        # state in 64 GB at world size 4.
        assert autotune.enumerate_plans(huge, 4, cluster) == []

    def test_small_model_prefers_data_parallelism(self, cluster):
        small = _model(hidden=1024, num_layers=4, batch=8)
        best = autotune.enumerate_plans(small, 16, cluster)[0]
        # A model that fits a single device gains nothing from sharding.
        assert best.parallel.dp >= best.parallel.tp
