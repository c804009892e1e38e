"""Tests for repro.core.scaling (Figures 6, 7, 9(b) machinery)."""

from __future__ import annotations

import pytest

from repro.core import scaling
from repro.core.hyperparams import ModelConfig
from repro.models import zoo


class TestDeviceMemoryTrend:
    def test_recorded_years(self):
        assert scaling.device_memory_gb(2018) == 16.0
        assert scaling.device_memory_gb(2021) == 80.0

    def test_extrapolates_forward(self):
        future = scaling.device_memory_gb(2025)
        assert future > scaling.device_memory_gb(2022)

    def test_clamps_backward(self):
        assert scaling.device_memory_gb(2010) == scaling.device_memory_gb(2016)

    def test_capacity_growth_is_modest(self):
        # The paper's point: ~5x capacity growth over the model-zoo era.
        growth = scaling.device_memory_gb(2022) / scaling.device_memory_gb(2018)
        assert 3.0 <= growth <= 8.0


class TestMemoryDemandProxy:
    def test_h_times_sl(self):
        model = ModelConfig(name="m", hidden=2048, seq_len=1024,
                            num_heads=16)
        assert scaling.memory_demand_proxy(model) == 2048 * 1024

    def test_demand_outpaces_capacity(self):
        rows = scaling.memory_gap_series()
        assert rows[-1].demand_norm / rows[-1].capacity_norm > 10
        assert rows[-1].params_norm > 1000  # the paper's ~1000x model growth


class TestModelSizeParams:
    def test_prefers_reported_sizes(self):
        assert scaling.model_size_params(zoo.MODEL_ZOO["T5"]) == 11.0e9

    def test_anchor_size(self):
        assert scaling.model_size_params(zoo.MEGATRON_LM_BERT) == 3.9e9

    def test_falls_back_to_computed(self):
        model = ModelConfig(name="custom", hidden=1024, seq_len=512,
                            num_layers=4, num_heads=16)
        assert scaling.model_size_params(model) == model.total_params()


class TestTpScaling:
    def test_requires_years(self):
        model = ModelConfig(name="x", hidden=1024, seq_len=512, num_heads=16)
        with pytest.raises(ValueError, match="year"):
            scaling.tp_scale_factor(model)

    def test_largest_models_in_paper_band(self):
        # Figure 9(b): p/s of ~40-60x for MT-NLG and PaLM.
        rows = {r.model: r for r in scaling.tp_scaling_series()}
        assert 40 <= rows["MT-NLG"].p_over_s <= 60
        assert 40 <= rows["PaLM"].p_over_s <= 60

    def test_required_tp_in_paper_band(self):
        # base_TP * (p/s) ~ 250-550 -> pow2 rounding gives 512.
        rows = {r.model: r for r in scaling.tp_scaling_series()}
        assert rows["PaLM"].required_tp in (256, 512)

    def test_max_tp_cap(self):
        rows = scaling.tp_scaling_series(max_tp=256)
        assert all(r.required_tp <= 256 for r in rows)

    def test_series_only_includes_anchor_or_larger(self):
        names = [r.model for r in scaling.tp_scaling_series()]
        assert "BERT" not in names
        assert "GPT-2" not in names


class TestRoundUpPow2:
    @pytest.mark.parametrize("value,expected", [
        (0.3, 1), (1, 1), (1.5, 2), (2, 2), (3, 4), (250, 256), (550, 1024),
    ])
    def test_values(self, value, expected):
        assert scaling.round_up_pow2(value) == expected


class TestMemoryGapSeries:
    def test_one_row_per_zoo_model(self):
        rows = scaling.memory_gap_series()
        assert [r.model for r in rows] == zoo.ZOO_ORDER

    def test_first_row_is_unit_baseline(self):
        first = scaling.memory_gap_series()[0]
        assert first.demand_norm == 1.0
        assert first.capacity_norm == 1.0
        assert first.gap == 1.0

    def test_rejects_empty_model_list(self):
        with pytest.raises(ValueError, match="at least one"):
            scaling.memory_gap_series(models=[])


class TestZooTrainingSetups:
    def test_historical_batches_applied(self):
        setups = dict(
            (model.name, (model, parallel))
            for model, parallel in scaling.zoo_training_setups()
        )
        assert setups["BERT"][0].batch == 16
        assert setups["PaLM"][0].batch == 1

    def test_tp_grows_with_model_scale(self):
        setups = scaling.zoo_training_setups()
        first_tp = setups[0][1].tp
        last_tp = setups[-1][1].tp
        assert last_tp > first_tp

    def test_max_tp_respected(self):
        for _, parallel in scaling.zoo_training_setups(max_tp=128):
            assert parallel.tp <= 128
