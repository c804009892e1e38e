"""Tests for repro.models.graph (operator datatypes and traces)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware.gemm import GemmShape
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
    Phase,
    SubLayer,
    Trace,
)


def _gemm(name="g", phase=Phase.FORWARD, weights=True) -> GemmOp:
    return GemmOp(name=name, shape=GemmShape(m=64, n=64, k=64),
                  phase=phase, sublayer=SubLayer.FC, has_weights=weights)


def _ew(name="e") -> ElementwiseOp:
    return ElementwiseOp(name=name, elements=1024, phase=Phase.FORWARD,
                         sublayer=SubLayer.FC)


def _comm(name="c", overlappable=False, group=CommGroup.TP,
          phase=Phase.FORWARD) -> CommOp:
    return CommOp(name=name, collective=CollectiveKind.ALL_REDUCE,
                  nbytes=1024, group=group, phase=phase,
                  sublayer=SubLayer.FC, overlappable=overlappable)


def _trace(*ops) -> Trace:
    model = ModelConfig(name="m", hidden=256, seq_len=128, num_heads=4)
    return Trace(model=model, parallel=ParallelConfig(tp=4, dp=2, ep=8),
                 ops=tuple(ops))


class TestOps:
    def test_gemm_flops_property(self):
        assert _gemm().flops == 2 * 64 ** 3

    def test_compute_flags(self):
        assert _gemm().is_compute
        assert _ew().is_compute
        assert not _comm().is_compute

    def test_elementwise_rejects_non_positive(self):
        with pytest.raises(ValueError, match="elements"):
            ElementwiseOp(name="bad", elements=0, phase=Phase.FORWARD,
                          sublayer=SubLayer.FC)

    def test_comm_rejects_non_positive_bytes(self):
        with pytest.raises(ValueError, match="nbytes"):
            CommOp(name="bad", collective=CollectiveKind.ALL_REDUCE,
                   nbytes=0, group=CommGroup.TP, phase=Phase.FORWARD,
                   sublayer=SubLayer.FC, overlappable=False)


class TestTrace:
    def test_len_and_iter(self):
        trace = _trace(_gemm(), _ew(), _comm())
        assert len(trace) == 3
        assert [op.name for op in trace] == ["g", "e", "c"]

    def test_type_filters(self):
        trace = _trace(_gemm(), _ew(), _comm(), _comm("c2", overlappable=True))
        assert len(trace.gemms()) == 1
        assert len(trace.elementwise()) == 1
        assert len(trace.comms()) == 2
        assert [op.name for op in trace.overlappable_comms()] == ["c2"]

    def test_totals(self):
        trace = _trace(_gemm(), _comm("a"), _comm("b", overlappable=True))
        assert trace.total_gemm_flops() == 2 * 64 ** 3
        assert trace.total_comm_bytes() == 2048
        assert trace.total_comm_bytes(overlappable=False) == 1024
        assert trace.total_comm_bytes(overlappable=True) == 1024

    def test_group_sizes_follow_parallel_config(self):
        trace = _trace()
        assert trace.group_size(CommGroup.TP) == 4
        assert trace.group_size(CommGroup.DP) == 2
        assert trace.group_size(CommGroup.EP) == 8
        assert trace.group_size(CommGroup.PP) == 1

    def test_ops_coerced_to_tuple(self):
        model = ModelConfig(name="m", hidden=256, seq_len=128, num_heads=4)
        trace = Trace(model=model, parallel=ParallelConfig(),
                      ops=[_gemm()])  # type: ignore[arg-type]
        assert isinstance(trace.ops, tuple)
