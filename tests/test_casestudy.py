"""Tests for repro.core.casestudy (Figure 14)."""

from __future__ import annotations

import pytest

from repro.core import casestudy
from repro.core.casestudy import CaseStudyScenario, default_scenarios
from repro.core.evolution import HardwareScenario
from repro.core.hyperparams import ModelConfig, ParallelConfig


@pytest.fixture(scope="module")
def rows():
    # The full H=64K case study is heavy; run it once for the module.
    return casestudy.run_case_study()


class TestSetup:
    def test_paper_configuration(self):
        assert casestudy.CASE_STUDY_MODEL.hidden == 65536
        assert casestudy.CASE_STUDY_MODEL.seq_len == 4096
        assert casestudy.CASE_STUDY_MODEL.batch == 1
        assert casestudy.CASE_STUDY_PARALLEL.tp == 128

    def test_three_default_scenarios(self):
        scenarios = default_scenarios()
        assert len(scenarios) == 3
        assert scenarios[1].hardware.flop_vs_bw == 4.0
        assert scenarios[2].overlapped_comm_slowdown > 1.0


class TestResults:
    def test_one_row_per_scenario(self, rows):
        assert [r.scenario for r in rows] == [s.name
                                              for s in default_scenarios()]

    def test_hardware_evolution_raises_serialized_share(self, rows):
        today, fourx, _ = rows
        assert fourx.serialized_fraction > today.serialized_fraction

    def test_fourx_serialized_in_paper_band(self, rows):
        # Paper: 47% of time in serialized communication at 4x.
        _, fourx, _ = rows
        assert 0.4 <= fourx.serialized_fraction <= 0.7

    def test_overlapped_share_modest_and_mostly_hidden(self, rows):
        # Paper: ~9% overlapped communication, completely hidden.
        _, fourx, _ = rows
        assert fourx.overlapped_fraction < 0.25
        exposed = fourx.breakdown.exposed_comm_time
        assert exposed < 0.1 * fourx.breakdown.overlapped_comm_time

    def test_internode_exposes_dp_communication(self, rows):
        _, fourx, internode = rows
        assert internode.breakdown.exposed_comm_time > (
            fourx.breakdown.exposed_comm_time
        )
        assert internode.breakdown.exposed_comm_time > 0.0

    def test_internode_critical_comm_dominates(self, rows):
        # Paper: total communication becomes a larger bottleneck.
        _, fourx, internode = rows
        assert internode.critical_comm_fraction > (
            fourx.critical_comm_fraction
        )
        assert internode.critical_comm_fraction > 0.6


class TestCustomization:
    def test_custom_scenario_and_model(self, cluster):
        model = ModelConfig(name="small-case", hidden=2048, seq_len=1024,
                            batch=1, num_layers=2, num_heads=16)
        scenario = CaseStudyScenario(
            name="probe",
            hardware=HardwareScenario(name="2x", compute_scale=2.0),
        )
        rows = casestudy.run_case_study(
            model=model,
            parallel=ParallelConfig(tp=8, dp=2),
            scenarios=[scenario],
            base_cluster=cluster,
        )
        assert len(rows) == 1
        assert rows[0].scenario == "probe"
        assert 0 < rows[0].serialized_fraction < 1
