"""Tests for repro.core.evolution (hardware scenarios)."""

from __future__ import annotations

import pytest

from repro.core import evolution
from repro.core.evolution import HardwareScenario, PAPER_SCENARIOS
from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.hardware.specs import DEVICE_CATALOG, flop_vs_bw_ratio
from repro.models.trace import layer_trace
from repro.sim.executor import execute_trace, op_duration, \
    schedule_with_durations


def _trace():
    model = ModelConfig(name="m", hidden=1024, seq_len=512, batch=2,
                        num_heads=16)
    return layer_trace(model, ParallelConfig(tp=4, dp=2))


class TestScenario:
    def test_flop_vs_bw_ratio(self):
        scenario = HardwareScenario(name="x", compute_scale=8.0,
                                    network_scale=2.0)
        assert scenario.flop_vs_bw == pytest.approx(4.0)

    def test_rejects_non_positive_scales(self):
        with pytest.raises(ValueError, match="positive"):
            HardwareScenario(name="x", compute_scale=0.0)

    def test_paper_scenarios(self):
        ratios = [s.flop_vs_bw for s in PAPER_SCENARIOS]
        assert ratios == [1.0, 2.0, 4.0]

    def test_apply_scales_cluster(self, cluster):
        scaled = PAPER_SCENARIOS[2].apply(cluster)
        assert scaled.device.flops(Precision.FP16) == pytest.approx(
            4 * cluster.device.flops(Precision.FP16)
        )
        assert scaled.intra_link.bandwidth == cluster.intra_link.bandwidth


class TestHistoricalRatios:
    def test_in_paper_band(self):
        # The paper's 2-4x historical range, from catalog generations.
        for old, new in (("V100", "A100"), ("MI50", "MI100")):
            ratio = flop_vs_bw_ratio(DEVICE_CATALOG[old], DEVICE_CATALOG[new],
                                     Precision.FP16)
            assert 2.0 <= ratio <= 4.5

    def test_custom_pairs(self):
        v100 = DEVICE_CATALOG["V100"]
        assert flop_vs_bw_ratio(v100, v100, Precision.FP16) == (
            pytest.approx(1.0))


class TestScaleDurations:
    def test_compute_ops_scaled_by_compute(self, cluster):
        trace = _trace()
        durations = [op_duration(op, trace, cluster) for op in trace.ops]
        scenario = HardwareScenario(name="4x", compute_scale=4.0)
        scaled = evolution.scale_durations(trace, durations, scenario)
        for op, before, after in zip(trace.ops, durations, scaled):
            if op.is_compute:
                assert after == pytest.approx(before / 4)
            else:
                assert after == pytest.approx(before)

    def test_network_scale_speeds_comm(self, cluster):
        trace = _trace()
        durations = [op_duration(op, trace, cluster) for op in trace.ops]
        scenario = HardwareScenario(name="net", compute_scale=1.0,
                                    network_scale=2.0)
        scaled = evolution.scale_durations(trace, durations, scenario)
        for op, before, after in zip(trace.ops, durations, scaled):
            if op.is_compute:
                assert after == pytest.approx(before)
            else:
                assert after == pytest.approx(before / 2)

    def test_rejects_length_mismatch(self, cluster):
        with pytest.raises(ValueError, match="durations"):
            evolution.scale_durations(_trace(), [1.0], PAPER_SCENARIOS[0])

    def test_scaling_raises_comm_fraction(self, cluster):
        # The paper's central hardware-evolution effect.
        trace = _trace()
        durations = [op_duration(op, trace, cluster) for op in trace.ops]
        today = schedule_with_durations(trace, durations).breakdown
        future = schedule_with_durations(
            trace,
            evolution.scale_durations(trace, durations, PAPER_SCENARIOS[2]),
        ).breakdown
        assert future.serialized_comm_fraction > (
            today.serialized_comm_fraction
        )

    def test_duration_scaling_matches_cluster_scaling_for_compute(
            self, exact_cluster, exact_timing):
        # Scaling durations post hoc must agree with re-simulating on a
        # compute-scaled cluster (compute times are pure 1/scale).
        trace = _trace()
        durations = [op_duration(op, trace, exact_cluster, exact_timing)
                     for op in trace.ops]
        scenario = HardwareScenario(name="2x", compute_scale=2.0)
        scaled_durations = evolution.scale_durations(trace, durations,
                                                     scenario)
        from repro.core.hyperparams import Precision
        from repro.models.graph import GemmOp
        rescaled_cluster = scenario.apply(exact_cluster)
        for op, expected in zip(trace.ops, scaled_durations):
            # Only FLOPS-bound GEMMs track compute scaling exactly;
            # element-wise kernels and memory-bound GEMMs sit on the
            # bandwidth roofline (the paper's wholesale compute-time
            # scaling is an approximation there).
            if not isinstance(op, GemmOp):
                continue
            device = exact_cluster.device
            eff = exact_timing.gemm.compute_efficiency(op.shape, device)
            t_compute = op.shape.flops / (
                device.flops(Precision.FP16) * eff
            )
            t_memory = op.shape.bytes_moved(Precision.FP16) / (
                device.mem_bw * device.peak_memory_efficiency
            )
            if t_compute < 2 * t_memory:
                continue
            resimulated = op_duration(op, trace, rescaled_cluster,
                                      exact_timing)
            # Launch overhead does not scale with FLOPS, so allow a small
            # divergence.
            assert resimulated == pytest.approx(expected, rel=0.15)
