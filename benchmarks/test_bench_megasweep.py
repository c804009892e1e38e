"""Bench: streamed out-of-core sweep vs one-shot full-grid evaluation.

The headline measurements are (a) a ~100k-raw-point design-space sweep
streamed chunk-by-chunk with bounded memory, timed at 1/2/4 workers,
and (b) the proof that streaming changes nothing: the reducer outputs
are compared ``==`` against a one-shot ``batch_execute`` of the fully
materialized grid.  Wall times, the traced peak memory of both paths,
and the worker scaling land in ``BENCH_results.json`` via
``bench_extra``.  The >= 2.5x four-worker gate only applies on hosts
with at least four cores -- single-core CI runners record the honest
(slower) numbers instead of faking a speedup.  The serial sweep at the
default chunking must stay within 1.15x of the one-shot evaluation.
"""

from __future__ import annotations

import os
import time
import tracemalloc

from repro.core.batch import batch_execute
from repro.core.gridplan import (
    DEFAULT_CHUNK_SIZE,
    FitsDeviceMemory,
    GridSpec,
    MaxWorldSize,
)
from repro.core.reducers import (
    ArgExtrema,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
)
from repro.experiments.ext_designspace import DESIGN_AXES, MAX_WORLD_SIZE
from repro.models.trace import layer_trace
from repro.runtime.megasweep import stream_sweep

#: Four-worker scaling gate, enforced only when the host has the cores.
MIN_4WORKER_SPEEDUP = 2.5

#: Streamed peak traced memory must stay well under the one-shot peak.
MAX_PEAK_FRACTION = 0.5

#: The serial sweep at the default chunking may take at most this
#: multiple of the one-shot evaluation of the same grid.
MAX_STREAM_OVERHEAD = 1.15

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


def _reducers():
    return (
        TopK("iteration_time", k=10, largest=False),
        ParetoFront(),
        Histogram("serialized_comm_fraction", bins=64),
        ArgExtrema("exposed_comm_time"),
    )


def _cold():
    layer_trace.cache_clear()


def _stream_seconds(spec, cluster, jobs):
    _cold()
    start = time.perf_counter()
    result = stream_sweep(spec, _reducers(), cluster=cluster,
                          chunk_size=CHUNK_SIZE, jobs=jobs)
    return time.perf_counter() - start, result


def _one_shot(spec, cluster):
    whole = spec.materialize(max_rows=None)
    breakdown = batch_execute(whole.grid, cluster)
    chunk = EvaluatedChunk(offsets=whole.offsets, columns=whole.columns(),
                           breakdown=breakdown)
    return {
        reducer.label: reducer.finalize(reducer.observe(chunk))
        for reducer in _reducers()
    }


def test_bench_stream_sweep_serial(benchmark, cluster):
    spec = _bench_spec(cluster)
    result = benchmark(
        lambda: stream_sweep(spec, _reducers(), cluster=cluster,
                             chunk_size=CHUNK_SIZE, jobs=1)
    )
    assert result.evaluated_points > 0


def test_stream_sweep_scaling_and_equivalence(cluster, bench_extra):
    """100k-point sweep: streamed == one-shot; record 1/2/4-worker times."""
    spec = _bench_spec(cluster)

    _cold()
    start = time.perf_counter()
    reference = _one_shot(spec, cluster)
    oneshot_s = time.perf_counter() - start

    timings = {}
    for jobs in (1, 2, 4):
        seconds, result = _stream_seconds(spec, cluster, jobs)
        timings[jobs] = seconds
        # Streaming is a pure execution strategy: every reducer output
        # is bit-for-bit the one-shot reduction, at any worker count.
        assert result.reductions == reference, (
            f"streamed ({jobs} workers) diverged from one-shot"
        )
        assert result.chunk_count == spec.chunk_count(CHUNK_SIZE)

    cpu_count = os.cpu_count() or 1
    speedup_4w = timings[1] / timings[4]
    bench_extra["stream_sweep"] = {
        "raw_points": spec.raw_size,
        "evaluated_points": result.evaluated_points,
        "chunk_size": CHUNK_SIZE,
        "chunk_count": spec.chunk_count(CHUNK_SIZE),
        "oneshot_s": oneshot_s,
        "jobs1_s": timings[1],
        "jobs2_s": timings[2],
        "jobs4_s": timings[4],
        "speedup_4w": speedup_4w,
        "cpu_count": cpu_count,
    }
    if cpu_count >= 4:
        assert speedup_4w >= MIN_4WORKER_SPEEDUP, (
            f"4-worker sweep only {speedup_4w:.2f}x over serial "
            f"({timings[4]:.3f}s vs {timings[1]:.3f}s on "
            f"{cpu_count} cores)"
        )


def test_stream_sweep_bounded_memory(cluster, bench_extra):
    """Streamed peak allocation is a fraction of the one-shot peak."""
    spec = _bench_spec(cluster)

    _cold()
    tracemalloc.start()
    _one_shot(spec, cluster)
    _, oneshot_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    _cold()
    tracemalloc.start()
    stream_sweep(spec, _reducers(), cluster=cluster,
                 chunk_size=CHUNK_SIZE, jobs=1)
    _, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    bench_extra.setdefault("stream_sweep", {})
    bench_extra["stream_sweep"]["oneshot_peak_bytes"] = oneshot_peak
    bench_extra["stream_sweep"]["streamed_peak_bytes"] = streamed_peak
    assert streamed_peak <= oneshot_peak * MAX_PEAK_FRACTION, (
        f"streamed peak {streamed_peak / 1e6:.1f} MB not under "
        f"{MAX_PEAK_FRACTION:.0%} of one-shot "
        f"{oneshot_peak / 1e6:.1f} MB"
    )


def test_stream_sweep_close_to_one_shot(cluster, bench_extra):
    """At the default chunking the serial sweep costs at most 15% more
    than one one-shot evaluation: each block of chunks times its
    operator shapes once, so a chunk adds only a gather, the schedule
    and the reducers.  Best of five alternating runs per side."""
    spec = _bench_spec(cluster)
    oneshot_s = streamed_s = float("inf")
    for _ in range(5):
        _cold()
        start = time.perf_counter()
        _one_shot(spec, cluster)
        oneshot_s = min(oneshot_s, time.perf_counter() - start)
        _cold()
        start = time.perf_counter()
        stream_sweep(spec, _reducers(), cluster=cluster, jobs=1)
        streamed_s = min(streamed_s, time.perf_counter() - start)
    ratio = streamed_s / oneshot_s
    bench_extra.setdefault("stream_sweep", {}).update(
        default_chunk_size=DEFAULT_CHUNK_SIZE,
        default_chunking_jobs1_s=streamed_s,
        default_chunking_oneshot_s=oneshot_s,
        default_chunking_ratio=ratio,
    )
    assert ratio <= MAX_STREAM_OVERHEAD, (
        f"streamed sweep {streamed_s:.3f}s is {ratio:.2f}x one-shot "
        f"{oneshot_s:.3f}s (gate {MAX_STREAM_OVERHEAD}x)"
    )
