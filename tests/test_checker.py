"""Tests for repro.sim.checker (oracle, fault seeding, check wiring)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.core.batch import ConfigGrid
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.invariants import InvariantError
from repro.models.trace import layer_trace
from repro.sim.checker import (
    check_enabled,
    differential_oracle,
    fault_selftest,
    random_configs,
    seeded_faults,
    validate_batch,
    validate_execution,
    validate_schedule,
)
from repro.sim.executor import execute_trace


class TestCheckEnabled:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK", raising=False)
        assert check_enabled() is False

    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert check_enabled() is True

    @pytest.mark.parametrize("value", ["0", "false", "off", ""])
    def test_falsy_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CHECK", value)
        assert check_enabled() is False

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert check_enabled(False) is False
        monkeypatch.delenv("REPRO_CHECK")
        assert check_enabled(True) is True


class TestRandomConfigs:
    def test_deterministic(self):
        assert random_configs(20, seed=5) == random_configs(20, seed=5)
        assert random_configs(20, seed=5) != random_configs(20, seed=6)

    def test_every_config_grid_valid(self):
        # ConfigGrid.from_models enforces every divisibility constraint;
        # constructing it proves the generator never emits invalid pairs.
        grid = ConfigGrid.from_models(random_configs(64, seed=11))
        assert len(grid.hidden) == 64

    def test_covers_parallelism_space(self):
        pairs = random_configs(200, seed=0)
        assert {p.tp for _, p in pairs} > {1}
        assert {p.dp for _, p in pairs} > {1}


class TestValidators:
    def test_accept_engine_output(self, cluster, small_model):
        trace = layer_trace(small_model, ParallelConfig(tp=8, dp=4))
        result = execute_trace(trace, cluster)
        validate_schedule(result.schedule)  # must not raise
        validate_execution(result)

    def test_reject_mutated_schedule(self, cluster, small_model):
        trace = layer_trace(small_model, ParallelConfig(tp=8, dp=4))
        schedule = execute_trace(trace, cluster).schedule
        faults = seeded_faults(schedule)
        assert faults
        for name, mutated in faults:
            with pytest.raises(InvariantError):
                validate_schedule(mutated)

    def test_validate_batch_accepts_engine_output(self, cluster):
        from repro.core.batch import batch_execute

        grid = ConfigGrid.from_models(random_configs(8, seed=2))
        validate_batch(batch_execute(grid, cluster))


class TestSeededFaults:
    def test_all_mutation_kinds_applicable(self, cluster, small_model):
        trace = layer_trace(small_model, ParallelConfig(tp=8, dp=4))
        schedule = execute_trace(trace, cluster).schedule
        names = {name for name, _ in seeded_faults(schedule)}
        assert names == {"swap-starts", "perturb-duration", "drop-dep",
                         "negative-start", "overlap-intervals"}

    def test_mutants_differ_from_original(self, cluster, small_model):
        trace = layer_trace(small_model, ParallelConfig(tp=4, dp=1))
        schedule = execute_trace(trace, cluster).schedule
        for name, mutated in seeded_faults(schedule):
            assert mutated.tasks != schedule.tasks, name


class TestFaultSelfTest:
    def test_validator_catches_every_seeded_fault(self):
        report = fault_selftest()
        assert report.ok, report.summary()
        assert report.rejected_good == 0
        assert report.faults > 0
        assert report.caught == report.faults
        assert report.missed == ()

    def test_summary_mentions_counts(self):
        report = fault_selftest()
        assert f"{report.caught}/{report.faults}" in report.summary()


class TestDifferentialOracle:
    def test_agrees_on_seeded_configs(self):
        report = differential_oracle(n=40, seed=7)
        assert report.ok, report.summary()
        assert report.checked == 40
        assert "OK" in report.summary()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            differential_oracle(n=0)

    def test_reports_first_divergent_config(self, monkeypatch):
        import repro.core.batch as batch_module

        real = batch_module.batch_execute

        def skewed(grid, cluster, timing=None, **kwargs):
            breakdown = real(grid, cluster, timing, **kwargs)
            iteration = np.array(breakdown.iteration_time, copy=True)
            iteration[3] *= 1.5  # silently corrupt one config
            return batch_module.BatchBreakdown(
                compute_time=breakdown.compute_time,
                serialized_comm_time=breakdown.serialized_comm_time,
                overlapped_comm_time=breakdown.overlapped_comm_time,
                iteration_time=iteration,
            )

        monkeypatch.setattr(batch_module, "batch_execute", skewed)
        report = differential_oracle(n=10, seed=7)
        assert not report.ok
        assert report.divergence.index == 3
        assert report.checked == 4  # stopped at the first divergence
        described = report.divergence.describe()
        assert "config #3" in described
        assert "TP=" in described and "DP=" in described

    def test_op_level_diff_on_duration_skew(self, monkeypatch):
        import repro.core.batch as batch_module

        real_durations = batch_module._op_durations

        def skewed(ops, grid, rows, cluster, timing):
            durations = real_durations(ops, grid, rows, cluster, timing)
            durations[0] = durations[0] * 1.25  # first op, every config
            return durations

        monkeypatch.setattr(batch_module, "_op_durations", skewed)
        report = differential_oracle(n=5, seed=7)
        assert not report.ok
        assert report.divergence.index == 0
        assert report.divergence.op_diffs
        first = report.divergence.op_diffs[0]
        assert first.batch == pytest.approx(first.scalar * 1.25)
        assert first.name in report.divergence.describe()


class TestCheckCli:
    def test_check_command_passes(self, capsys):
        assert main(["check", "--configs", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "differential oracle: OK" in out
        assert "fault-seeding self-test: OK" in out

    def test_skip_flags(self, capsys):
        assert main(["check", "--configs", "5", "--skip-selftest"]) == 0
        out = capsys.readouterr().out
        assert "self-test" not in out

    def test_analyze_check_flag(self, capsys):
        code = main(["analyze", "--hidden", "2048", "--seq-len", "512",
                     "--tp", "8", "--dp", "2", "--check"])
        assert code == 0
        assert "invariants hold" in capsys.readouterr().out

    def test_experiment_check_flag(self, capsys):
        code = main(["experiment", "figure-10", "--no-cache", "--meta",
                     "--check"])
        assert code == 0
        assert "checked" in capsys.readouterr().out
