"""Ablation benches for the simulator design choices DESIGN.md calls out.

Each ablation disables one modeled hardware effect and checks the paper
phenomenon it is responsible for:

* **kernel-selection jitter** -- the source of irreducible operator-model
  projection error (Figure 15);
* **network bandwidth saturation** -- the source of Figure 11's
  higher-overlap-at-small-H behaviour;
* **ring straggler overhead** -- the growing cost of very large TP rings.
"""

from __future__ import annotations

import pytest

from repro.core import projection
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.experiments import sweeps
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.hardware.collectives import CollectiveTimingModel
from repro.hardware.network import Link
from repro.models.trace import layer_trace
from repro.sim.executor import DEFAULT_TIMING, execute_trace


def _gemm_errors(cluster, timing):
    suite = projection.fit_operator_models(cluster, timing=timing)
    base = suite.baseline_model
    traces = [layer_trace(base.with_inputs(seq_len=sl), ParallelConfig(1, 1))
              for sl in (256, 1024, 2048, 4096)]
    errors = projection.projection_errors(suite, traces, cluster,
                                          timing=timing,
                                          op_filter="weight-gemm")
    return projection.error_stats(errors)


def test_bench_ablation_jitter(benchmark, cluster):
    """Disabling kernel-selection jitter shrinks projection error."""
    def run():
        with_jitter = _gemm_errors(cluster, DEFAULT_TIMING)
        without = _gemm_errors(mi210_node(jitter=False),
                               DEFAULT_TIMING.without_jitter())
        return with_jitter, without

    with_jitter, without = benchmark(run)
    assert without.geomean_abs < with_jitter.geomean_abs
    # Residual error (efficiency-vs-size effects) remains even without
    # jitter -- exactly the paper's explanation of its errors.
    assert without.geomean_abs > 0.0


def test_bench_ablation_saturation(benchmark):
    """Without bandwidth saturation, small-H overlap elevation vanishes."""
    def ratio_spread(saturation_half: float) -> float:
        link = Link(bandwidth=150e9, latency=1e-6,
                    saturation_half_bytes=saturation_half)
        cluster = mi210_node().replace(intra_link=link)
        small_h = sweeps.overlap_ratio(1024, 4096, cluster)
        large_h = sweeps.overlap_ratio(16384, 4096, cluster)
        return small_h / large_h

    def run():
        realistic = ratio_spread(1e6)
        no_saturation = ratio_spread(1.0)  # effectively always saturated
        return realistic, no_saturation

    realistic, no_saturation = benchmark(run)
    # With saturation modeled, small-H comm is relatively more expensive.
    assert realistic > no_saturation
    assert realistic > 1.5


def test_bench_ablation_straggler(benchmark):
    """Ring straggler overhead drives the large-TP fraction growth."""
    def fraction_at_tp256(straggler_half: float) -> float:
        model = CollectiveTimingModel(straggler_half=straggler_half)
        cluster = mi210_node().replace(collective_model=model)
        config = ModelConfig(name="a", hidden=65536, seq_len=4096, batch=1,
                             num_heads=256)
        trace = layer_trace(config, ParallelConfig(tp=256, dp=1))
        return execute_trace(trace, cluster).breakdown.\
            serialized_comm_fraction

    def run():
        realistic = fraction_at_tp256(340.0)
        ideal_rings = fraction_at_tp256(1e9)  # no straggler overhead
        return realistic, ideal_rings

    realistic, ideal_rings = benchmark(run)
    assert realistic > ideal_rings
    assert realistic - ideal_rings > 0.05
