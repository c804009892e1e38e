"""Bench: bound-and-prune selection sweep vs exhaustive streaming.

The headline measurement: on the ~100k-raw-point design-space grid, a
top-k + Pareto selection query answered through the two-phase
bound-and-prune scheduler must beat the exhaustive streamed sweep by
>= 5x cold at one worker, while producing bit-identical reducer
outputs.  Both timings, the exact-evaluated chunk/point fractions, and
the speedup land in ``BENCH_results.json`` via ``bench_extra``.  The
gate only applies on hosts with at least four cores -- slower runners
still record the honest numbers.
"""

from __future__ import annotations

import os
import time

from repro.core.gridplan import FitsDeviceMemory, GridSpec, MaxWorldSize
from repro.core.reducers import ParetoFront, TopK
from repro.experiments.ext_designspace import DESIGN_AXES, MAX_WORLD_SIZE
from repro.models.trace import layer_trace
from repro.runtime.megasweep import stream_sweep

#: Cold single-worker pruned-vs-exhaustive gate on selection queries.
MIN_PRUNE_SPEEDUP = 5.0

CHUNK_SIZE = 2048


def _bench_spec(cluster) -> GridSpec:
    """~100k raw points: the design-space axes with a widened batch axis."""
    axes = dict(DESIGN_AXES)
    axes["batch"] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048)
    spec = GridSpec(
        constraints=(
            MaxWorldSize(MAX_WORLD_SIZE),
            FitsDeviceMemory.from_device(cluster.device),
        ),
        **axes,
    )
    assert spec.raw_size >= 100_000
    return spec


def _selection():
    return (TopK("iteration_time", k=10, largest=False), ParetoFront())


def _cold():
    layer_trace.cache_clear()


def _timed_sweep(spec, cluster, prune):
    _cold()
    start = time.perf_counter()
    result = stream_sweep(spec, _selection(), cluster=cluster,
                          chunk_size=CHUNK_SIZE, jobs=1, prune=prune)
    return time.perf_counter() - start, result


def test_bench_pruned_selection(benchmark, cluster):
    spec = _bench_spec(cluster)
    result = benchmark(
        lambda: stream_sweep(spec, _selection(), cluster=cluster,
                             chunk_size=CHUNK_SIZE, jobs=1, prune=True)
    )
    assert result.meta["prune"]["enabled"]


def test_prune_speedup_and_equivalence(cluster, bench_extra):
    """Cold pruned selection >= 5x cold exhaustive, bit-identical."""
    spec = _bench_spec(cluster)

    exhaustive_s, exhaustive = _timed_sweep(spec, cluster, prune=False)
    pruned_s, pruned = _timed_sweep(spec, cluster, prune=True)

    # Pruning is a pure execution strategy: every reducer output is
    # bit-for-bit the exhaustive reduction.
    assert pruned.reductions == exhaustive.reductions, (
        "pruned selection diverged from exhaustive"
    )

    meta = pruned.meta["prune"]
    assert meta["enabled"]
    assert meta["pruned_chunks"] > 0
    assert pruned.evaluated_points < exhaustive.evaluated_points

    cpu_count = os.cpu_count() or 1
    speedup = exhaustive_s / pruned_s
    bench_extra["prune"] = {
        "raw_points": spec.raw_size,
        "feasible_points": meta["feasible_points"],
        "chunk_size": CHUNK_SIZE,
        "chunk_count": pruned.chunk_count,
        "exhaustive_s": exhaustive_s,
        "pruned_s": pruned_s,
        "speedup": speedup,
        "exact_chunks": meta["exact_chunks"],
        "pruned_chunks": meta["pruned_chunks"],
        "exact_chunk_fraction": meta["exact_chunk_fraction"],
        "exact_point_fraction": meta["exact_point_fraction"],
        "cpu_count": cpu_count,
    }
    if cpu_count >= 4:
        assert speedup >= MIN_PRUNE_SPEEDUP, (
            f"pruned selection only {speedup:.2f}x over exhaustive "
            f"({pruned_s:.3f}s vs {exhaustive_s:.3f}s on "
            f"{cpu_count} cores)"
        )
