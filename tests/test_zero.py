"""Tests for repro.models.zero (ZeRO data parallelism)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models import memory, zero
from repro.models.graph import CollectiveKind, CommGroup, CommOp, Phase
from repro.models.trace import training_trace
from repro.sim.executor import execute_trace


def _model(layers=2) -> ModelConfig:
    return ModelConfig(name="m", hidden=2048, seq_len=1024, batch=1,
                       num_layers=layers, num_heads=16)


PARALLEL = ParallelConfig(tp=4, dp=8)


def _layer_zero_ops(stage, parallel=PARALLEL):
    """The ZeRO collectives of a one-layer trace, in trace order."""
    trace = zero.zero_training_trace(_model(layers=1), parallel, stage)
    return [op for op in trace if isinstance(op, CommOp)
            and op.collective in (CollectiveKind.ALL_GATHER,
                                  CollectiveKind.REDUCE_SCATTER)]


class TestLayerCommOps:
    def test_stage_validation(self):
        with pytest.raises(ValueError, match="stage"):
            zero.zero_training_trace(_model(), PARALLEL, 0)
        with pytest.raises(ValueError, match="stage"):
            zero.zero_training_trace(_model(), PARALLEL, 4)

    def test_no_dp_no_collectives(self):
        assert _layer_zero_ops(2, ParallelConfig(tp=4)) == []

    def test_stage_one_has_gather_and_scatter(self):
        kinds = [op.collective for op in _layer_zero_ops(1)]
        assert kinds == [CollectiveKind.ALL_GATHER,
                         CollectiveKind.REDUCE_SCATTER]

    def test_stage_three_adds_backward_gather(self):
        gathers = [op for op in _layer_zero_ops(3)
                   if op.collective is CollectiveKind.ALL_GATHER]
        assert len(gathers) == 2
        assert {op.phase for op in gathers} == {Phase.FORWARD,
                                                Phase.BACKWARD}

    def test_all_collectives_on_dp_group_and_overlappable(self):
        for op in _layer_zero_ops(3):
            assert op.group is CommGroup.DP
            assert op.overlappable

    def test_volume_ratio_stage3_is_1_5x(self):
        v1 = sum(op.nbytes for op in _layer_zero_ops(1))
        v3 = sum(op.nbytes for op in _layer_zero_ops(3))
        assert v3 == pytest.approx(1.5 * v1)

    def test_stage1_volume_matches_plain_dp(self):
        # gather + scatter of the layer params == one all-reduce's bytes
        # at the trace level (2x the parameter bytes each way).
        plain = training_trace(_model(layers=1), PARALLEL)
        plain_bytes = plain.total_comm_bytes(overlappable=True)
        assert sum(op.nbytes for op in _layer_zero_ops(1)) == (
            pytest.approx(2 * plain_bytes, rel=1e-3)
        )


class TestZeroTrace:
    def test_no_plain_gradient_all_reduce_remains(self):
        trace = zero.zero_training_trace(_model(), PARALLEL, 2)
        leftovers = [op for op in trace if isinstance(op, CommOp)
                     and op.overlappable
                     and op.collective is CollectiveKind.ALL_REDUCE]
        assert leftovers == []

    def test_serialized_tp_comm_unchanged(self):
        plain = training_trace(_model(), PARALLEL)
        zeroed = zero.zero_training_trace(_model(), PARALLEL, 2)
        assert zeroed.total_comm_bytes(overlappable=False) == (
            plain.total_comm_bytes(overlappable=False)
        )

    def test_compute_unchanged(self):
        plain = training_trace(_model(), PARALLEL)
        zeroed = zero.zero_training_trace(_model(), PARALLEL, 3)
        assert zeroed.total_gemm_flops() == plain.total_gemm_flops()

    def test_per_layer_collective_counts(self):
        trace = zero.zero_training_trace(_model(layers=3), PARALLEL, 3)
        gathers = [op for op in trace
                   if isinstance(op, CommOp)
                   and op.collective is CollectiveKind.ALL_GATHER]
        scatters = [op for op in trace
                    if isinstance(op, CommOp)
                    and op.collective is CollectiveKind.REDUCE_SCATTER]
        assert len(gathers) == 2 * 3
        assert len(scatters) == 3

    def test_executes_on_testbed(self, cluster):
        trace = zero.zero_training_trace(_model(), PARALLEL, 3)
        breakdown = execute_trace(trace, cluster).breakdown
        assert breakdown.iteration_time > 0
        assert breakdown.overlapped_comm_time > 0

    def test_stage3_more_comm_time_than_stage1(self, cluster):
        one = execute_trace(zero.zero_training_trace(_model(), PARALLEL, 1),
                            cluster).breakdown
        three = execute_trace(zero.zero_training_trace(_model(), PARALLEL,
                                                       3),
                              cluster).breakdown
        assert three.overlapped_comm_time > one.overlapped_comm_time


class TestZeroMemory:
    def test_monotone_memory_reduction(self):
        totals = [
            memory.memory_footprint(_model(), PARALLEL, zero_stage=s).total
            for s in (0, 1, 2, 3)
        ]
        assert totals == sorted(totals, reverse=True)
        assert totals[3] < totals[0]

    def test_stage3_shards_params(self):
        plain = memory.memory_footprint(_model(), PARALLEL, zero_stage=0)
        stage3 = memory.memory_footprint(_model(), PARALLEL, zero_stage=3)
        assert stage3.params * PARALLEL.dp == pytest.approx(plain.params,
                                                            rel=1e-6)

    def test_stage2_shards_grads_not_params(self):
        plain = memory.memory_footprint(_model(), PARALLEL, zero_stage=0)
        stage2 = memory.memory_footprint(_model(), PARALLEL, zero_stage=2)
        assert stage2.params == plain.params
        assert stage2.gradients * PARALLEL.dp == pytest.approx(
            plain.gradients, rel=1e-6
        )
