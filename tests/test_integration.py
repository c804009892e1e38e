"""Cross-module integration and property tests.

These tie the layers together: traces built from hyperparameters must
match the closed-form equations, execute consistently on the simulated
testbed, and reproduce the paper's qualitative scaling behaviours across
randomly drawn configurations.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flops
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.graph import Phase
from repro.models.trace import layer_trace, training_trace
from repro.sim.executor import execute_trace

_hidden = st.sampled_from([1024, 2048, 4096, 8192])
_seq = st.sampled_from([512, 1024, 2048])
_batch = st.integers(min_value=1, max_value=4)
_tp = st.sampled_from([1, 2, 4, 8, 16])
_dp = st.sampled_from([1, 2, 4])


def _model(hidden, seq_len, batch) -> ModelConfig:
    return ModelConfig(name="gen", hidden=hidden, seq_len=seq_len,
                       batch=batch, num_heads=16)


class TestTraceEquationConsistency:
    @given(hidden=_hidden, seq_len=_seq, batch=_batch, tp=_tp, dp=_dp)
    @settings(max_examples=40, deadline=None)
    def test_trace_matches_closed_forms(self, hidden, seq_len, batch, tp,
                                        dp):
        model = _model(hidden, seq_len, batch)
        parallel = ParallelConfig(tp=tp, dp=dp)
        trace = layer_trace(model, parallel)

        forward_flops = sum(op.flops for op in trace.gemms()
                            if op.phase is Phase.FORWARD)
        assert forward_flops == flops.forward_layer_ops(model, parallel)
        assert trace.total_gemm_flops() == flops.training_layer_ops(
            model, parallel
        )
        assert trace.total_comm_bytes(overlappable=False) == (
            flops.serialized_comm_bytes(model, parallel)
        )
        if dp > 1:
            assert trace.total_comm_bytes(overlappable=True) == (
                pytest.approx(flops.layer_weight_grad_bytes(model, parallel),
                              rel=1e-3)
            )

    @given(hidden=_hidden, seq_len=_seq, tp=st.sampled_from([2, 4, 8]))
    @settings(max_examples=20, deadline=None)
    def test_breakdown_identity(self, hidden, seq_len, tp, request):
        cluster = request.getfixturevalue("cluster")
        model = _model(hidden, seq_len, 1)
        breakdown = execute_trace(
            layer_trace(model, ParallelConfig(tp=tp, dp=2)), cluster
        ).breakdown
        assert breakdown.hidden_comm_time + breakdown.exposed_comm_time == (
            pytest.approx(breakdown.overlapped_comm_time)
        )
        assert breakdown.iteration_time >= (
            breakdown.compute_time + breakdown.serialized_comm_time - 1e-12
        )


class TestScalingBehaviours:
    def test_serialized_fraction_monotone_in_tp(self, cluster):
        model = ModelConfig(name="gen", hidden=4096, seq_len=1024, batch=1,
                            num_heads=64)
        fractions = []
        for tp in (2, 4, 8, 16, 32, 64):
            breakdown = execute_trace(
                layer_trace(model, ParallelConfig(tp=tp)), cluster
            ).breakdown
            fractions.append(breakdown.serialized_comm_fraction)
        assert fractions == sorted(fractions)

    def test_serialized_fraction_falls_with_hidden(self, cluster):
        fractions = []
        for hidden in (2048, 8192, 32768):
            model = _model(hidden, 1024, 1)
            breakdown = execute_trace(
                layer_trace(model, ParallelConfig(tp=16)), cluster
            ).breakdown
            fractions.append(breakdown.serialized_comm_fraction)
        assert fractions == sorted(fractions, reverse=True)

    def test_network_scaling_reduces_comm_share(self, cluster):
        model = _model(4096, 1024, 1)
        trace = layer_trace(model, ParallelConfig(tp=16))
        base = execute_trace(trace, cluster).breakdown
        faster_net = execute_trace(
            trace, cluster.scaled(network_scale=4.0)
        ).breakdown
        assert faster_net.serialized_comm_fraction < (
            base.serialized_comm_fraction
        )

    def test_compute_scaling_raises_comm_share(self, cluster):
        model = _model(4096, 1024, 1)
        trace = layer_trace(model, ParallelConfig(tp=16))
        base = execute_trace(trace, cluster).breakdown
        faster_compute = execute_trace(
            trace, cluster.scaled(compute_scale=4.0)
        ).breakdown
        assert faster_compute.serialized_comm_fraction > (
            base.serialized_comm_fraction
        )

    def test_balanced_scaling_preserves_fractions_approximately(self,
                                                                cluster):
        model = _model(4096, 1024, 1)
        trace = layer_trace(model, ParallelConfig(tp=16))
        base = execute_trace(trace, cluster).breakdown
        balanced = execute_trace(
            trace, cluster.scaled(compute_scale=4.0, network_scale=4.0)
        ).breakdown
        assert balanced.serialized_comm_fraction == pytest.approx(
            base.serialized_comm_fraction, abs=0.06
        )


class TestEndToEnd:
    def test_full_iteration_on_multinode_cluster(self, multinode):
        model = ModelConfig(name="e2e", hidden=2048, seq_len=1024, batch=2,
                            num_layers=3, num_heads=16)
        trace = training_trace(model, ParallelConfig(tp=4, dp=8))
        result = execute_trace(trace, multinode)
        assert result.breakdown.iteration_time > 0
        assert result.schedule.makespan == result.breakdown.iteration_time

    def test_layer_fractions_match_full_model(self, cluster):
        # Per-layer fractions are representative of the whole network:
        # a single-layer trace and a 4-layer trace agree on the serialized
        # fraction (DP overlap differs slightly via the pipeline tail).
        model = ModelConfig(name="frac", hidden=2048, seq_len=1024,
                            batch=1, num_layers=4, num_heads=16)
        parallel = ParallelConfig(tp=8, dp=1)
        one = execute_trace(
            layer_trace(model, parallel), cluster
        ).breakdown
        four = execute_trace(
            training_trace(model, parallel), cluster
        ).breakdown
        assert four.serialized_comm_fraction == pytest.approx(
            one.serialized_comm_fraction, abs=0.01
        )

    def test_projection_pipeline_end_to_end(self, cluster):
        from repro.core import projection
        suite = projection.fit_operator_models(cluster)
        model = ModelConfig(name="gen", hidden=8192, seq_len=2048, batch=1,
                            num_heads=32)
        trace = layer_trace(model, ParallelConfig(tp=32, dp=2))
        projected = suite.project_execution(trace).breakdown
        actual = execute_trace(trace, cluster).breakdown
        # Projection tracks ground truth within the paper's error class.
        assert projected.iteration_time == pytest.approx(
            actual.iteration_time, rel=0.4
        )
        assert projected.serialized_comm_fraction == pytest.approx(
            actual.serialized_comm_fraction, abs=0.15
        )
