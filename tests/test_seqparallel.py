"""Tests for repro.models.seqparallel (sequence parallelism)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.graph import CollectiveKind, CommOp, ElementwiseOp
from repro.models.seqparallel import (
    activation_memory_saving,
    sequence_parallel_trace,
)
from repro.models.trace import training_trace
from repro.sim.executor import execute_trace


def _model(layers=2) -> ModelConfig:
    return ModelConfig(name="m", hidden=2048, seq_len=1024, batch=1,
                       num_layers=layers, num_heads=16)


TP8 = ParallelConfig(tp=8, dp=1)


class TestTraceTransform:
    def test_requires_tensor_parallelism(self):
        with pytest.raises(ValueError, match="TP > 1"):
            sequence_parallel_trace(_model(), ParallelConfig(tp=1, dp=2))

    def test_requires_divisible_sequence(self):
        odd = ModelConfig(name="m", hidden=2048, seq_len=1028, batch=1,
                          num_heads=16)
        with pytest.raises(ValueError, match="seq_len"):
            sequence_parallel_trace(odd, TP8)

    def test_no_all_reduces_remain(self):
        trace = sequence_parallel_trace(_model(), TP8)
        assert not [op for op in trace if isinstance(op, CommOp)
                    and op.collective is CollectiveKind.ALL_REDUCE
                    and not op.overlappable]

    def test_rs_ag_pairs_replace_each_ar(self):
        plain = training_trace(_model(), TP8)
        seq = sequence_parallel_trace(_model(), TP8)
        ar_count = len([op for op in plain.comms() if not op.overlappable])
        rs = [op for op in seq if isinstance(op, CommOp)
              and op.collective is CollectiveKind.REDUCE_SCATTER]
        ag = [op for op in seq if isinstance(op, CommOp)
              and op.collective is CollectiveKind.ALL_GATHER]
        assert len(rs) == len(ag) == ar_count

    def test_gemm_flops_unchanged(self):
        plain = training_trace(_model(), TP8)
        seq = sequence_parallel_trace(_model(), TP8)
        assert seq.total_gemm_flops() == plain.total_gemm_flops()

    def test_layernorm_and_residual_sharded(self):
        plain = training_trace(_model(), TP8)
        seq = sequence_parallel_trace(_model(), TP8)
        def elems(trace, kinds):
            return sum(op.elements for op in trace.elementwise()
                       if op.kind.startswith(kinds))
        assert elems(seq, ("layernorm", "residual")) * 8 == (
            elems(plain, ("layernorm", "residual"))
        )
        # GeLU and softmax are already TP-sharded: unchanged.
        assert elems(seq, ("gelu", "softmax")) == (
            elems(plain, ("gelu", "softmax"))
        )

    def test_comm_bytes_preserved(self):
        # RS + AG over the same buffer == the AR's wire traffic: trace
        # byte totals count buffers, so the split doubles the nominal
        # count while each collective moves half an AR's traffic.
        plain = training_trace(_model(), TP8)
        seq = sequence_parallel_trace(_model(), TP8)
        assert seq.total_comm_bytes(overlappable=False) == (
            2 * plain.total_comm_bytes(overlappable=False)
        )


class TestBehaviour:
    def test_iteration_time_close_to_plain_tp(self, cluster):
        # Same wire bytes, two half-collectives: within ~20% either way.
        plain = execute_trace(training_trace(_model(), TP8),
                              cluster).breakdown
        seq = execute_trace(sequence_parallel_trace(_model(), TP8),
                            cluster).breakdown
        assert seq.iteration_time == pytest.approx(plain.iteration_time,
                                                   rel=0.2)

    def test_memory_saving_formula(self):
        model = _model()
        saving = activation_memory_saving(model, TP8)
        replicated = 6 * 1 * 1024 * 2048 * 2
        assert saving == replicated - replicated // 8

    def test_saving_grows_with_tp(self):
        model = _model()
        assert activation_memory_saving(model, ParallelConfig(tp=16)) > (
            activation_memory_saving(model, ParallelConfig(tp=2))
        )
