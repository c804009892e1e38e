"""Tests for repro.models.layers: shape-accurate ops vs paper equations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flops
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models import layers
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
    Phase,
    SubLayer,
)


def _model(hidden=2048, seq_len=1024, batch=2, heads=16) -> ModelConfig:
    return ModelConfig(name="m", hidden=hidden, seq_len=seq_len,
                       batch=batch, num_heads=heads)


TP4_DP2 = ParallelConfig(tp=4, dp=2)

_pow2_dim = st.sampled_from([1024, 2048, 4096])
_tp_values = st.sampled_from([1, 2, 4, 8])


class TestForwardShapes:
    def test_gemm_names_and_order(self):
        ops = layers.layer_forward_ops(_model(), TP4_DP2)
        gemm_names = [op.name for op in ops if isinstance(op, GemmOp)]
        assert gemm_names == ["attn.qkv", "attn.scores", "attn.context",
                              "attn.out_proj", "fc.fc1", "fc.fc2"]

    def test_qkv_shape_column_parallel(self):
        ops = {op.name: op for op in layers.layer_forward_ops(_model(),
                                                              TP4_DP2)
               if isinstance(op, GemmOp)}
        qkv = ops["attn.qkv"].shape
        assert (qkv.m, qkv.k, qkv.n) == (2048, 2048, 3 * 2048 // 4)

    def test_out_proj_shape_row_parallel(self):
        ops = {op.name: op for op in layers.layer_forward_ops(_model(),
                                                              TP4_DP2)
               if isinstance(op, GemmOp)}
        out = ops["attn.out_proj"].shape
        assert (out.m, out.k, out.n) == (2048, 2048 // 4, 2048)

    def test_attention_gemms_sharded_by_head(self):
        ops = {op.name: op for op in layers.layer_forward_ops(_model(),
                                                              TP4_DP2)
               if isinstance(op, GemmOp)}
        scores = ops["attn.scores"].shape
        assert scores.batch == 2 * (16 // 4)
        assert (scores.m, scores.n, scores.k) == (1024, 1024, 2048 // 16)

    def test_attention_gemms_carry_no_weights(self):
        ops = layers.layer_forward_ops(_model(), TP4_DP2)
        weightless = {op.name for op in ops
                      if isinstance(op, GemmOp) and not op.has_weights}
        assert weightless == {"attn.scores", "attn.context"}

    @given(hidden=_pow2_dim, seq_len=_pow2_dim, tp=_tp_values)
    @settings(max_examples=25)
    def test_forward_flops_match_equation_4(self, hidden, seq_len, tp):
        model = _model(hidden=hidden, seq_len=seq_len)
        parallel = ParallelConfig(tp=tp, dp=1)
        trace_flops = sum(
            op.flops for op in layers.layer_forward_ops(model, parallel)
            if isinstance(op, GemmOp)
        )
        assert trace_flops == flops.forward_layer_ops(model, parallel)

    def test_tp_one_emits_no_all_reduce(self):
        ops = layers.layer_forward_ops(_model(), ParallelConfig(tp=1, dp=2))
        assert not [op for op in ops if isinstance(op, CommOp)
                    and op.group is CommGroup.TP]

    def test_forward_has_two_tp_all_reduces(self):
        ops = layers.layer_forward_ops(_model(), TP4_DP2)
        ars = [op for op in ops if isinstance(op, CommOp)]
        assert len(ars) == 2
        assert all(not op.overlappable for op in ars)
        assert {op.name for op in ars} == {"attn.ar_fwd", "fc.ar_fwd"}

    def test_all_reduce_bytes_match_equation_5(self):
        model = _model()
        ops = layers.layer_forward_ops(model, TP4_DP2)
        ar = next(op for op in ops if isinstance(op, CommOp))
        assert ar.nbytes == flops.serialized_comm_bytes(
            model, TP4_DP2, per_all_reduce=True
        )


class TestBackwardShapes:
    def test_each_gemm_spawns_ig_and_wg_of_equal_flops(self):
        forward = next(op for op in layers.layer_forward_ops(_model(),
                                                             TP4_DP2)
                       if isinstance(op, GemmOp))
        ig, wg = layers.backward_gemms_for(forward)
        assert ig.flops == wg.flops == forward.flops
        assert ig.name.endswith(".ig")
        assert wg.name.endswith(".wg")
        assert ig.phase is Phase.BACKWARD

    @given(hidden=_pow2_dim, seq_len=_pow2_dim, tp=_tp_values)
    @settings(max_examples=25)
    def test_backward_flops_are_twice_forward(self, hidden, seq_len, tp):
        model = _model(hidden=hidden, seq_len=seq_len)
        parallel = ParallelConfig(tp=tp, dp=2)
        backward_flops = sum(
            op.flops for op in layers.layer_backward_ops(model, parallel)
            if isinstance(op, GemmOp)
        )
        assert backward_flops == flops.backward_layer_ops(model, parallel)

    def test_four_serialized_all_reduces_per_layer(self):
        all_ops = (layers.layer_forward_ops(_model(), TP4_DP2)
                   + layers.layer_backward_ops(_model(), TP4_DP2))
        serialized = [op for op in all_ops if isinstance(op, CommOp)
                      and not op.overlappable]
        assert len(serialized) == flops.SERIALIZED_ALL_REDUCES_PER_LAYER

    def test_dp_gradient_all_reduce_per_sublayer(self):
        ops = layers.layer_backward_ops(_model(), TP4_DP2)
        grads = [op for op in ops if isinstance(op, CommOp)
                 and op.overlappable]
        assert {op.name for op in grads} == {"fc.grad_ar",
                                             "attention.grad_ar"}
        assert all(op.group is CommGroup.DP for op in grads)

    def test_grad_ar_emitted_after_sublayer_wg_gemms(self):
        ops = layers.fc_backward_ops(_model(), TP4_DP2)
        grad_index = next(i for i, op in enumerate(ops)
                          if isinstance(op, CommOp) and op.overlappable)
        wg_indices = [i for i, op in enumerate(ops)
                      if isinstance(op, GemmOp) and op.name.endswith(".wg")]
        assert grad_index > max(wg_indices)

    def test_no_dp_no_gradient_all_reduce(self):
        ops = layers.layer_backward_ops(_model(), ParallelConfig(tp=4, dp=1))
        assert not [op for op in ops if isinstance(op, CommOp)
                    and op.overlappable]

    def test_fc_weight_bytes_match_equation_8(self):
        model = _model()
        assert layers.fc_weight_bytes(model, TP4_DP2) == (
            flops.fc_weight_grad_bytes(model, TP4_DP2)
        )

    def test_layer_gradient_bytes_near_flops_module(self):
        # layers.py excludes the O(H) bias terms that params_per_layer
        # includes; agreement must be within 0.1%.
        model = _model()
        from_layers = (layers.attention_weight_bytes(model, TP4_DP2)
                       + layers.fc_weight_bytes(model, TP4_DP2))
        from_flops = flops.layer_weight_grad_bytes(model, TP4_DP2)
        assert from_layers == pytest.approx(from_flops, rel=1e-3)


class TestShardingChecks:
    def test_tp_not_dividing_heads_rejected_by_attention_builders(self):
        model = ModelConfig(name="m", hidden=768, seq_len=128, num_heads=6)
        parallel = ParallelConfig(tp=4)
        for builder in (layers.attention_forward_ops,
                        layers.attention_backward_ops,
                        layers.layer_forward_ops,
                        layers.layer_backward_ops):
            with pytest.raises(ValueError, match=r"^num_heads \(6\) is not "
                                                 r"divisible by TP \(4\)$"):
                builder(model, parallel)
        assert layers.fc_forward_ops(model, parallel)

    def test_tp_not_dividing_ffn_rejected_by_fc_builders(self):
        model = ModelConfig(name="m", hidden=1024, seq_len=128,
                            num_heads=16, ffn_dim=1000)
        parallel = ParallelConfig(tp=16)
        for builder in (layers.fc_forward_ops, layers.fc_backward_ops,
                        layers.layer_forward_ops,
                        layers.layer_backward_ops):
            with pytest.raises(ValueError, match=r"^ffn_dim \(1000\) is not "
                                                 r"divisible by TP \(16\)$"):
                builder(model, parallel)
        assert layers.attention_forward_ops(model, parallel)

    def test_attention_checks_heads_before_projection_widths(self):
        # TP divides neither num_heads nor 3 * hidden here; the heads
        # check comes first, as in sharding.sharded_heads.
        model = ModelConfig(name="m", hidden=65, seq_len=128, num_heads=5)
        for builder in (layers.attention_forward_ops,
                        layers.layer_forward_ops):
            with pytest.raises(ValueError, match=r"^num_heads \(5\) is not "
                                                 r"divisible by TP \(2\)$"):
                builder(model, ParallelConfig(tp=2))


def _op_fields(op) -> tuple:
    common = (op.name, op.phase)
    if isinstance(op, GemmOp):
        s = op.shape
        return common + ("gemm", s.m, s.n, s.k, s.batch, op.has_weights)
    if isinstance(op, ElementwiseOp):
        return common + ("elementwise", op.elements, op.rw_factor, op.kind)
    assert isinstance(op, CommOp)
    assert op.collective is CollectiveKind.ALL_REDUCE
    return common + ("comm", op.nbytes, op.group, op.overlappable)


def _record_fields(record: layers.OpRecord, row: int) -> tuple:
    def at(value) -> int:
        return int(value[row]) if np.ndim(value) else value

    common = (record.name, record.phase)
    if record.family == layers.GEMM:
        return common + ("gemm", at(record.m), at(record.n), at(record.k),
                         at(record.batch), record.has_weights)
    if record.family == layers.ELEMENTWISE:
        return common + ("elementwise", at(record.elements),
                         record.rw_factor, record.kind)
    return common + ("comm", at(record.nbytes), record.group,
                     record.overlappable)


class TestOpTable:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_grid_records_equal_layer_trace(self, seed):
        """The table evaluated on int64 grid columns equals the scalar
        trace op for op, field for field, in all four parity
        partitions."""
        from repro.core.batch import ConfigGrid
        from repro.models.trace import layer_trace
        from repro.sim.checker import random_configs
        from tests.parity import parity_partitions

        grid = ConfigGrid.from_models(random_configs(80, seed))
        parities = set()
        for _, sub, tp_flag, dp_flag in parity_partitions(grid):
            parities.add((tp_flag, dp_flag))
            records = layers.layer_records(sub, tp_flag, dp_flag)
            for row in range(len(sub)):
                ops = layer_trace(*sub.at(row)).ops
                assert len(records) == len(ops)
                for record, op in zip(records, ops):
                    assert _record_fields(record, row) == _op_fields(op)
        assert parities == {(False, False), (False, True), (True, False),
                            (True, True)}

    @pytest.mark.parametrize("numpy_first", (True, False))
    def test_scalar_ops_do_not_depend_on_call_history(self, cluster,
                                                      numpy_first):
        """Equal configs with NumPy and built-in ints each get ops of their
        own type, whichever is built first: built-in ops time normally and
        NumPy ones fail loudly at the jitter hash."""
        from repro.models.graph import Trace
        from repro.sim.executor import execute_trace

        def model(to):
            return ModelConfig(name="m", hidden=to(1024), seq_len=to(256),
                               batch=to(2), num_heads=to(16))

        def run(to):
            ops = (layers.layer_forward_ops(model(to), TP4_DP2)
                   + layers.layer_backward_ops(model(to), TP4_DP2))
            execute_trace(Trace(model(to), TP4_DP2, tuple(ops)), cluster)
            return ops

        def run_numpy():
            with pytest.raises(TypeError, match="jitter key part"):
                run(np.int64)

        if numpy_first:
            run_numpy()
        ops = run(int)
        if not numpy_first:
            run_numpy()
        assert all(type(op.shape.m) is int and type(op.shape.n) is int
                   for op in ops if isinstance(op, GemmOp))

    def test_traces_stamp_the_sub_layer_builders_per_layer(self):
        """The traces build one layer's records once and stamp them per
        layer; that equals calling the builders layer by layer."""
        from repro.models.trace import (forward_trace, layer_trace,
                                        training_trace)

        model = ModelConfig(name="m", hidden=1024, seq_len=256, batch=2,
                            num_heads=16, num_layers=3)
        for parallel in (ParallelConfig(), ParallelConfig(tp=4),
                         ParallelConfig(dp=2), TP4_DP2):
            fwd = [layers.layer_forward_ops(model, parallel, layer)
                   for layer in range(3)]
            bwd = [layers.layer_backward_ops(model, parallel, layer)
                   for layer in range(3)]
            assert list(layer_trace(model, parallel, 2).ops) == (
                fwd[2] + bwd[2])
            assert list(training_trace(model, parallel).ops) == (
                fwd[0] + fwd[1] + fwd[2] + bwd[2] + bwd[1] + bwd[0])
            assert list(forward_trace(model, parallel).ops) == (
                fwd[0] + fwd[1] + fwd[2])

    def test_scalar_records_hold_builtin_ints(self):
        dims = layers.LayerDims.of(_model(), TP4_DP2)
        for record in layers.layer_records(dims, True, True):
            for field in ("m", "n", "k", "batch", "elements", "nbytes"):
                assert type(getattr(record, field)) is int
