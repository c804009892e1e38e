"""Cross-module physics invariants, property-tested with hypothesis.

These are the conservation laws of the simulated testbed: identities
between collectives, monotonicities of the timing models, invariants of
trace construction and scheduling that must hold for *every* valid
configuration, not just the calibration points.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import flops
from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.hardware import collectives as coll
from repro.hardware.collectives import CollectiveTimingModel
from repro.hardware.gemm import GemmShape, GemmTimingModel
from repro.hardware.network import Link
from repro.hardware.specs import MI210
from repro.models.graph import CommOp, GemmOp, Phase
from repro.models.trace import layer_trace, training_trace
from repro.sim import serialize
from repro.sim.executor import execute_trace

EXACT_COLL = CollectiveTimingModel(jitter_amplitude=0.0)
EXACT_GEMM = GemmTimingModel(jitter_amplitude=0.0)
LINK = Link(bandwidth=150e9, latency=1e-6)

_valid_configs = st.builds(
    lambda hidden, seq_exp, batch, heads_exp: ModelConfig(
        name="prop",
        hidden=hidden,
        seq_len=1 << seq_exp,
        batch=batch,
        num_heads=min(1 << heads_exp, hidden // 8),
    ),
    hidden=st.sampled_from([512, 1024, 2048, 4096, 8192]),
    seq_exp=st.integers(min_value=7, max_value=12),
    batch=st.integers(min_value=1, max_value=8),
    heads_exp=st.integers(min_value=3, max_value=6),
)

_parallel = st.builds(
    ParallelConfig,
    tp=st.sampled_from([1, 2, 4, 8]),
    dp=st.sampled_from([1, 2, 4, 8]),
)

_sizes = st.integers(min_value=1 << 12, max_value=1 << 30)
_groups = st.sampled_from([2, 4, 8, 16, 64])


class TestCollectiveIdentities:
    @given(nbytes=_sizes, n=_groups)
    @settings(max_examples=50)
    def test_allreduce_equals_rs_plus_ag_transfer(self, nbytes, n):
        """Ring AR moves exactly RS + AG worth of data (same latency
        chain split in two)."""
        ar = coll.all_reduce_time(nbytes, n, LINK, model=EXACT_COLL)
        rs = coll.reduce_scatter_time(nbytes, n, LINK, model=EXACT_COLL)
        ag = coll.all_gather_time(nbytes, n, LINK, model=EXACT_COLL)
        assert ar == pytest.approx(rs + ag, rel=1e-9)

    @given(nbytes=_sizes, n=_groups)
    @settings(max_examples=50)
    def test_pin_at_most_ring(self, nbytes, n):
        ring = coll.all_reduce_time(nbytes, n, LINK, model=EXACT_COLL)
        pin = coll.all_reduce_time(
            nbytes, n, LINK,
            algorithm=coll.AllReduceAlgorithm.IN_NETWORK,
            model=EXACT_COLL,
        )
        assert pin <= ring + 1e-12


class TestGemmMonotonicity:
    @given(m=st.sampled_from([1024, 2048, 4096]),
           n=st.sampled_from([1024, 2048, 4096]),
           k=st.sampled_from([256, 1024, 4096]))
    @settings(max_examples=40)
    def test_growth_dominates_quantization_wobble(self, m, n, k):
        # Tile/wave quantization makes doubling occasionally *cheaper*
        # (a real GPU artifact -- below CU saturation, more tiles simply
        # bring more CUs online at ~constant time).  For device-saturating
        # shapes, the physical invariants are that a doubled dimension is
        # never drastically cheaper and a quadrupled one always costs
        # more.
        base = EXACT_GEMM.time(GemmShape(m=m, n=n, k=k), MI210,
                               Precision.FP16)
        for axis in ("m", "n", "k"):
            doubled = GemmShape(**{**dict(m=m, n=n, k=k),
                                   axis: 2 * dict(m=m, n=n, k=k)[axis]})
            quadrupled = GemmShape(**{**dict(m=m, n=n, k=k),
                                      axis: 4 * dict(m=m, n=n, k=k)[axis]})
            assert EXACT_GEMM.time(doubled, MI210,
                                   Precision.FP16) > 0.6 * base
            assert EXACT_GEMM.time(quadrupled, MI210,
                                   Precision.FP16) > base

    @given(m=st.sampled_from([128, 512, 2048]),
           batch=st.sampled_from([2, 4, 8]))
    @settings(max_examples=30)
    def test_batched_no_cheaper_than_one_instance(self, m, batch):
        shape = GemmShape(m=m, n=1024, k=1024)
        batched = GemmShape(m=m, n=1024, k=1024, batch=batch)
        t_one = EXACT_GEMM.time(shape, MI210, Precision.FP16)
        t_batched = EXACT_GEMM.time(batched, MI210, Precision.FP16)
        assert t_batched > t_one
        # And batching never costs more than running instances serially
        # (launch overhead amortizes, quantization can only help).
        assert t_batched <= batch * t_one + 1e-12


class TestTraceInvariants:
    @given(model=_valid_configs, parallel=_parallel)
    @settings(max_examples=40, deadline=None)
    def test_op_counts_are_structural(self, model, parallel):
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        trace = layer_trace(model, parallel)
        gemms = trace.gemms()
        assert len(gemms) == 6 + 12  # forward + backward
        serialized = [op for op in trace.comms() if not op.overlappable]
        expected_ars = 4 if parallel.tp > 1 else 0
        assert len(serialized) == expected_ars
        grads = trace.overlappable_comms()
        assert len(grads) == (2 if parallel.dp > 1 else 0)

    @given(model=_valid_configs, parallel=_parallel)
    @settings(max_examples=30, deadline=None)
    def test_backward_flops_double_forward(self, model, parallel):
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        trace = layer_trace(model, parallel)
        fwd = sum(op.flops for op in trace.gemms()
                  if op.phase is Phase.FORWARD)
        bwd = sum(op.flops for op in trace.gemms()
                  if op.phase is Phase.BACKWARD)
        assert bwd == 2 * fwd

    @given(model=_valid_configs, parallel=_parallel)
    @settings(max_examples=25, deadline=None)
    def test_serialization_round_trip(self, model, parallel):
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        trace = layer_trace(model, parallel)
        data = serialize.trace_to_dict(trace)
        assert json.loads(json.dumps(data)) == data
        assert len(data["ops"]) == len(trace.ops)


class TestTransformConservation:
    """Trace transforms must conserve what they claim to conserve."""

    @given(model=_valid_configs,
           stage=st.sampled_from([1, 2, 3]))
    @settings(max_examples=20, deadline=None)
    def test_zero_preserves_compute(self, model, stage):
        from repro.models.zero import zero_training_trace
        parallel = ParallelConfig(tp=4, dp=4)
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        plain = training_trace(model, parallel)
        zeroed = zero_training_trace(model, parallel, stage)
        assert zeroed.total_gemm_flops() == plain.total_gemm_flops()
        assert zeroed.total_comm_bytes(overlappable=False) == (
            plain.total_comm_bytes(overlappable=False)
        )

    @given(model=_valid_configs,
           bucket_mb=st.sampled_from([1, 4, 32, 1024]))
    @settings(max_examples=20, deadline=None)
    def test_bucketing_conserves_bytes(self, model, bucket_mb):
        from repro.models.bucketing import bucket_gradients
        parallel = ParallelConfig(tp=4, dp=4)
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        trace = training_trace(model, parallel)
        bucketed = bucket_gradients(trace, bucket_mb << 20)
        assert bucketed.total_comm_bytes(overlappable=True) == (
            trace.total_comm_bytes(overlappable=True)
        )
        assert bucketed.total_gemm_flops() == trace.total_gemm_flops()

    @given(model=_valid_configs,
           ratio=st.floats(min_value=0.01, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_compression_shrinks_monotonically(self, model, ratio):
        from repro.models.compression import (
            CompressionScheme,
            compress_gradients,
        )
        parallel = ParallelConfig(tp=4, dp=4)
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        trace = training_trace(model, parallel)
        scheme = CompressionScheme(name="h", ratio=ratio)
        compressed = compress_gradients(trace, scheme)
        before = trace.total_comm_bytes(overlappable=True)
        after = compressed.total_comm_bytes(overlappable=True)
        assert after <= before
        assert after >= int(before * ratio) * 0.99


class TestExecutionInvariants:
    @given(model=_valid_configs, parallel=_parallel)
    @settings(max_examples=25, deadline=None)
    def test_breakdown_conservation(self, model, parallel, request):
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        cluster = request.getfixturevalue("cluster")
        breakdown = execute_trace(layer_trace(model, parallel),
                                  cluster).breakdown
        # Conservation: iteration bounded by the serial sum, bounded
        # below by the blocking chain.
        serial_sum = (breakdown.compute_time
                      + breakdown.serialized_comm_time
                      + breakdown.overlapped_comm_time)
        chain = breakdown.compute_time + breakdown.serialized_comm_time
        assert chain - 1e-12 <= breakdown.iteration_time <= (
            serial_sum + 1e-12
        )
        assert breakdown.hidden_comm_time >= -1e-12
        assert breakdown.exposed_comm_time >= 0.0

    @given(model=_valid_configs)
    @settings(max_examples=20, deadline=None)
    def test_counts_match_equations_for_multi_layer(self, model, request):
        cluster = request.getfixturevalue("cluster")
        parallel = ParallelConfig(tp=4, dp=2)
        if model.num_heads % parallel.tp or model.ffn_dim % parallel.tp:
            return
        trace = training_trace(
            ModelConfig(name="p", hidden=model.hidden,
                        seq_len=model.seq_len, batch=model.batch,
                        num_layers=2, num_heads=model.num_heads),
            parallel,
        )
        assert trace.total_comm_bytes(overlappable=False) == (
            2 * flops.serialized_comm_bytes(
                model.with_inputs(), parallel
            )
        )
