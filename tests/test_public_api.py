"""Public-API surface tests: the names a downstream user relies on."""

from __future__ import annotations

import importlib

import pytest

import repro


class TestTopLevel:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_surface(self):
        # The exact objects the README quickstart uses.
        model = repro.ModelConfig(name="api", hidden=1024, seq_len=512,
                                  batch=1, num_heads=16)
        parallel = repro.ParallelConfig(tp=4, dp=2)
        from repro.models.trace import training_trace
        result = repro.execute_trace(training_trace(model, parallel),
                                     repro.mi210_node())
        assert isinstance(result.breakdown, repro.Breakdown)


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("module_name", [
        "repro.core", "repro.models", "repro.hardware", "repro.sim",
        "repro.experiments",
    ])
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None, name

    def test_core_analysis_entry_points(self):
        from repro.core import (
            amdahl_edge,
            fit_operator_models,
            overlap_roi_timing,
            required_tp,
            slack_advantage,
        )
        assert callable(amdahl_edge) and callable(slack_advantage)
        assert callable(fit_operator_models)
        assert callable(required_tp)
        assert callable(overlap_roi_timing)

    def test_sim_entry_points(self):
        from repro.sim import (
            execute_trace,
            execute_with_decomposition,
            render_timeline,
            run_schedule,
        )
        assert callable(execute_trace)
        assert callable(execute_with_decomposition)
        assert callable(render_timeline)
        assert callable(run_schedule)


class TestExperimentCustomization:
    """Experiments accept custom arguments, not just their defaults."""

    def test_fig12_custom_scenarios(self, cluster):
        from repro.core.evolution import HardwareScenario
        from repro.experiments import fig12_hw_serialized
        result = fig12_hw_serialized.run(
            cluster,
            scenarios=[HardwareScenario(name="8x", compute_scale=8.0)],
        )
        assert all(row[2] == "8x" for row in result.rows)

    def test_precision_subset(self, cluster):
        from repro.core.hyperparams import Precision
        from repro.experiments import ext_precision
        result = ext_precision.run(cluster,
                                   precisions=[Precision.BF16])
        assert {row[2] for row in result.rows} == {"bf16"}

    def test_moe_custom_degrees(self, cluster):
        from repro.experiments import ext_moe
        result = ext_moe.run(cluster, ep_degrees=(4,), tp=4)
        assert len(result.rows) == 2  # dense + one MoE variant

    def test_bucketing_custom_sizes(self, cluster):
        from repro.experiments import ext_bucketing
        result = ext_bucketing.run(cluster, buckets_mb=(1, 8))
        assert len(result.rows) == 2

    def test_forecast_custom_years(self, cluster):
        from repro.experiments import ext_forecast
        result = ext_forecast.run(cluster, start_year=2024, end_year=2024)
        assert [row[0] for row in result.rows] == [2024]

    def test_decode_custom_tp_set(self, cluster):
        from repro.experiments import ext_decode
        result = ext_decode.run(cluster, tp_degrees=(2, 4))
        assert [row[0] for row in result.rows] == [2, 4]
