"""Vectorized mirrors of the hardware timing models (batch engine core).

Every function here evaluates one operator *family* for an entire array
of configurations at once with NumPy broadcasting, reproducing the
scalar models of :mod:`repro.hardware` bit-for-bit:

* arithmetic replicates the scalar formulas' exact operation order, so
  IEEE-754 rounding matches the scalar path operation by operation;
* an operator's duration depends only on its shape, so
  :func:`gemm_times` times each *distinct* shape of a stacked call once
  -- tile efficiencies, roofline, base time and jitter -- and gathers
  the results back per element (the element-wise formula costs less
  than finding the distinct counts, so only its jitter is deduplicated);
* the deterministic shape-keyed jitter is computed through the same
  :func:`repro.hardware.gemm.stable_unit_hash` on keys built from Python
  ints (NumPy 2.x scalars ``repr`` differently and would corrupt the
  hashes); each distinct key is hashed once per call, and a FIFO memo
  shares hashes across calls;
* integer helpers (`ceil`, power-of-two rounding, tree depth) use exact
  integer arithmetic that coincides with the scalar models' float-based
  forms over the representable range.

:func:`closed_form_breakdown` replaces the discrete-event scheduler for
the fixed two-stream Transformer-layer trace: with FIFO streams and a
blocking chain whose finish times are monotone, start times reduce to a
prefix sum over the blocking ops, and each overlappable collective's
finish is ``max(previous async finish, blocking prefix at issue) +
duration`` -- exactly what :func:`repro.sim.engine.run_schedule` computes
task by task.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.hyperparams import Precision
from repro.hardware import collectives
from repro.hardware.cluster import ClusterSpec
from repro.hardware.collectives import (
    AllReduceAlgorithm,
    CollectiveTimingModel,
)
from repro.hardware.elementwise import ElementwiseTimingModel
from repro.hardware.gemm import GemmTimingModel, stable_unit_hash
from repro.hardware.network import Link
from repro.hardware.specs import DeviceSpec

__all__ = [
    "gemm_times",
    "elementwise_times",
    "all_reduce_times",
    "reduce_scatter_times",
    "all_gather_times",
    "cluster_all_reduce_times",
    "closed_form_breakdown",
    "stack_columns",
]


def _as_i64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


#: Memoized ``stable_unit_hash`` values.  The hash is pure, keys are
#: small tuples, and each timing call hashes its distinct keys only, but
#: the same key recurs across the calls of a grid (the same operator
#: shape in several slots and timing groups) and across chunks.  On the
#: 30 cold seed-1 ``search-scan`` perfbench queries, 49% of 482,482
#: lookups hit (246,617 hashes computed); warm grids are nearly free.
_HASH_CACHE: dict = {}
_HASH_CACHE_LIMIT = 1 << 18


def _cached_unit_hash(key: tuple) -> float:
    value = _HASH_CACHE.get(key)
    if value is None:
        if len(_HASH_CACHE) >= _HASH_CACHE_LIMIT:
            # Evict the oldest eighth (dict preserves insertion order)
            # instead of dropping everything: streaming sweeps with
            # per-config jitter keys cycle through far more keys than
            # the limit, and a full clear would also throw away the
            # small, hot set of shared-shape keys every chunk reuses.
            evict = max(1, _HASH_CACHE_LIMIT // 8)
            for stale in list(itertools.islice(_HASH_CACHE, evict)):
                del _HASH_CACHE[stale]
        value = _HASH_CACHE[key] = stable_unit_hash(*key)
    return value


# -- reusable stacking buffers -------------------------------------------

#: Pool of int64 stacking buffers, keyed by call-site tag.  Grids are
#: evaluated slot-kind by slot-kind with the same stacked shapes chunk
#: after chunk; reusing one buffer per tag removes the per-chunk
#: allocation tax (each sweep worker process has its own pool).
_SCRATCH: Dict[str, np.ndarray] = {}


def stack_columns(tag: str, columns: Sequence[object],
                  n: int) -> np.ndarray:
    """Stack per-slot length-``n`` columns into one reused flat buffer.

    Scalar entries are broadcast to ``n`` copies by the fill itself.
    Bit-identical to ``np.concatenate(columns)`` for int64 inputs; the
    returned array is a view of a module-level scratch buffer, valid
    only until the next :func:`stack_columns` call with the same
    ``tag`` -- callers must consume it (e.g. feed it to a timing
    model) before stacking into that tag again.
    """
    needed = len(columns) * n
    buffer = _SCRATCH.get(tag)
    if buffer is None or buffer.shape[0] < needed:
        buffer = _SCRATCH[tag] = np.empty(max(needed, 1), dtype=np.int64)
    out = buffer[:needed]
    for row, column in enumerate(columns):
        out[row * n:(row + 1) * n] = column
    return out


def _jitter_factors(amplitude: float, keys: Sequence[tuple]) -> np.ndarray:
    """Per-element ``1 + amp * (2u - 1)`` multipliers for a key column."""
    u = np.fromiter(
        (_cached_unit_hash(key) for key in keys),
        dtype=np.float64,
        count=len(keys),
    )
    return 1.0 + amplitude * (2.0 * u - 1.0)


def _distinct_rows(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of equal-length 1-D int64 key columns.

    Returns ``(unique, inverse)``: ``unique`` is an ``(u, len(columns))``
    array of the distinct rows in lexicographic order and ``inverse``
    maps every input row to its row of ``unique``, so
    ``unique[inverse]`` rebuilds the input.  Shapes repeat heavily
    within one stacked timing call (the same operator recurs across
    slots and grid rows), so timing ``unique`` and gathering by
    ``inverse`` does the work once per distinct shape.  The rows are
    sorted with :func:`numpy.lexsort` and split where adjacent rows
    differ in any column.
    """
    if not len(columns[0]):
        return (np.empty((0, len(columns)), dtype=np.int64),
                np.empty(0, dtype=np.intp))
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    first = order[starts]
    unique = np.empty((len(first), len(columns)), dtype=np.int64)
    for i, column in enumerate(columns):
        unique[:, i] = column[first]
    return unique, inverse


# -- GEMM ---------------------------------------------------------------


def _pow2_at_most(value: np.ndarray, cap: int) -> np.ndarray:
    """Vectorized :meth:`GemmTimingModel._pow2_at_most` (value >= 1)."""
    # Smallest power of two >= value: a power of two maps to itself, any
    # other value rounds up via its float exponent (frexp's exponent of v
    # is floor(log2(v)) + 1, exact for the integer range in play).
    is_pow2 = (value & (value - 1)) == 0
    exponent = np.frexp(value.astype(np.float64))[1].astype(np.int64)
    next_pow2 = np.where(is_pow2, value, np.int64(1) << exponent)
    return np.where(value >= cap, cap, next_pow2)


def _ceil_div(numerator: np.ndarray, denominator) -> np.ndarray:
    return -(-numerator // denominator)


def _gemm_efficiency_for_tile(
    m: np.ndarray,
    n: np.ndarray,
    k: np.ndarray,
    batch: np.ndarray,
    device: DeviceSpec,
    tile: int,
    model: GemmTimingModel,
) -> np.ndarray:
    tile_m = _pow2_at_most(m, tile)
    tile_n = _pow2_at_most(n, tile)
    tiles_m = _ceil_div(m, tile_m)
    tiles_n = _ceil_div(n, tile_n)
    tile_eff = (m * n) / (tiles_m * tiles_n * tile_m * tile_n)
    # NumPy's array ``**`` (SIMD pow) can differ from libm pow by 1 ulp;
    # the tile-product takes only a handful of distinct values, so route
    # each through Python's pow to stay bit-identical to the scalar model.
    products, inverse = np.unique(tile_m * tile_n, return_inverse=True)
    reuse_table = np.fromiter(
        ((product / model.tile**2) ** (model.TILE_REUSE_EXP / 2)
         for product in products.tolist()),
        dtype=np.float64,
        count=len(products),
    )
    reuse_eff = reuse_table[inverse]
    total_tiles = batch * tiles_m * tiles_n
    split = np.maximum(
        1, np.minimum(model.compute_units // total_tiles,
                      k // model.SPLIT_K_MIN)
    )
    split_applies = (
        (total_tiles < model.compute_units)
        & (k > model.SPLIT_K_MIN)
        & (split > 1)
    )
    total_tiles = np.where(split_applies, total_tiles * split, total_tiles)
    split_penalty = np.where(split_applies, model.SPLIT_K_EFFICIENCY, 1.0)
    waves = _ceil_div(total_tiles, model.compute_units)
    wave_eff = total_tiles / (waves * model.compute_units)
    k_eff = k / (k + model.k_half)
    m_eff = m / (m + model.m_half)
    return (device.peak_compute_efficiency * tile_eff * reuse_eff
            * wave_eff * k_eff * m_eff * split_penalty)


def gemm_times(
    m,
    n,
    k,
    batch,
    device: DeviceSpec,
    precision: Precision,
    model: GemmTimingModel,
) -> np.ndarray:
    """Vectorized :meth:`GemmTimingModel.time` over shape arrays; each
    distinct ``(m, n, k, batch)`` row is timed and hashed once per call."""
    columns = np.broadcast_arrays(_as_i64(m), _as_i64(n), _as_i64(k),
                                  _as_i64(batch))
    shape = columns[0].shape
    unique, inverse = _distinct_rows(*(c.ravel() for c in columns))
    m, n, k, batch = np.ascontiguousarray(unique.T)
    eff = _gemm_efficiency_for_tile(m, n, k, batch, device,
                                    model.TILE_CANDIDATES[0], model)
    for tile in model.TILE_CANDIDATES[1:]:
        eff = np.maximum(
            eff, _gemm_efficiency_for_tile(m, n, k, batch, device, tile,
                                           model)
        )
    flops = 2 * batch * m * n * k
    t_compute = flops / (device.flops(precision) * eff)
    bytes_moved = precision.bytes * batch * (m * k + k * n + m * n)
    t_memory = bytes_moved / (
        device.mem_bw * device.peak_memory_efficiency
    )
    base = np.maximum(t_compute, t_memory) + device.compute_launch_overhead
    if model.jitter_amplitude != 0:
        dtype = precision.value
        keys = [("gemm", mi, ni, ki, bi, dtype)
                for mi, ni, ki, bi in unique.tolist()]
        base = base * _jitter_factors(model.jitter_amplitude, keys)
    return base[inverse].reshape(shape)


# -- element-wise -------------------------------------------------------


def elementwise_times(
    elements,
    device: DeviceSpec,
    precision: Precision,
    rw_factor: float,
    kind: str,
    model: ElementwiseTimingModel,
) -> np.ndarray:
    """Vectorized :meth:`ElementwiseTimingModel.time` over element counts;
    each distinct count's jitter key is hashed once per call."""
    elements = _as_i64(elements)
    # Scalar path: int(elements * precision.bytes * rw_factor).  The int
    # product is exact in float64 for the sizes in play, so truncation
    # reproduces the int() conversion.
    nbytes = np.trunc(
        (elements * precision.bytes).astype(np.float64) * rw_factor
    )
    saturation = nbytes / (nbytes + model.saturation_half_bytes)
    achieved = device.mem_bw * device.peak_memory_efficiency * saturation
    base = nbytes / achieved
    base = base + device.compute_launch_overhead
    if not model.jitter_amplitude:
        return base
    counts, inverse = np.unique(elements, return_inverse=True)
    dtype = precision.value
    keys = [(kind, count, dtype) for count in counts.tolist()]
    return base * _jitter_factors(model.jitter_amplitude, keys)[inverse]


# -- collectives --------------------------------------------------------


def _effective_bandwidth(link: Link, nbytes: np.ndarray) -> np.ndarray:
    utilization = nbytes / (nbytes + link.saturation_half_bytes)
    return link.bandwidth * utilization


def _collective_jitter(
    model: CollectiveTimingModel,
    op: str,
    nbytes: np.ndarray,
    n_devices: np.ndarray,
):
    if model.jitter_amplitude == 0:
        return 1.0
    # Dedupe on the float's bit pattern so distinct sizes never share a
    # key row; the key itself stays ``int(size)`` as in the scalar model.
    unique, inverse = _distinct_rows(
        np.ascontiguousarray(nbytes, dtype=np.float64).view(np.int64),
        n_devices,
    )
    sizes = unique[:, 0].view(np.float64).tolist()
    keys = [("collective", op, int(size), devices)
            for size, devices in zip(sizes, unique[:, 1].tolist())]
    return _jitter_factors(model.jitter_amplitude, keys)[inverse]


def all_reduce_times(
    nbytes,
    n_devices,
    link: Link,
    algorithm: AllReduceAlgorithm,
    model: CollectiveTimingModel,
) -> np.ndarray:
    """Vectorized :func:`repro.hardware.collectives.all_reduce_time`.

    Single-device entries come back as 0.0 (the scalar early-out).
    """
    nbytes = np.asarray(nbytes, dtype=np.float64)
    n_devices = _as_i64(n_devices)
    if algorithm is AllReduceAlgorithm.AUTO:
        exact = model.without_jitter()
        ring = all_reduce_times(nbytes, n_devices, link,
                                AllReduceAlgorithm.RING, exact)
        tree = all_reduce_times(nbytes, n_devices, link,
                                AllReduceAlgorithm.TREE, exact)
        best = np.minimum(ring, tree)
        jitter = _collective_jitter(model, "allreduce-auto", nbytes,
                                    n_devices)
        return np.where(n_devices > 1, best * jitter, 0.0)
    bw = _effective_bandwidth(link, nbytes)
    if algorithm is AllReduceAlgorithm.RING:
        steps = 2 * (n_devices - 1)
        transfer = (2.0 * (n_devices - 1) / n_devices * nbytes / bw
                    * (1.0 + n_devices / model.straggler_half))
    elif algorithm is AllReduceAlgorithm.TREE:
        # ceil(log2(n)) == float exponent of n - 1 for every n >= 2.
        depth = np.frexp(
            np.maximum(n_devices - 1, 1).astype(np.float64)
        )[1].astype(np.int64)
        steps = 2 * depth
        transfer = 2.0 * nbytes / bw * collectives._TREE_BANDWIDTH_PENALTY
    else:  # IN_NETWORK
        steps = np.full_like(n_devices, 2)
        transfer = nbytes / bw
    base = steps * link.latency + transfer
    jitter = _collective_jitter(model, f"allreduce-{algorithm.value}",
                                nbytes, n_devices)
    return np.where(n_devices > 1, base * jitter, 0.0)


def _ring_collective_times(
    op: str,
    nbytes: np.ndarray,
    n_devices: np.ndarray,
    link: Link,
    model: CollectiveTimingModel,
) -> np.ndarray:
    bw = _effective_bandwidth(link, nbytes)
    base = (n_devices - 1) * link.latency + (
        (n_devices - 1) / n_devices * nbytes / bw
        * (1.0 + n_devices / model.straggler_half)
    )
    jitter = _collective_jitter(model, op, nbytes, n_devices)
    return np.where(n_devices > 1, base * jitter, 0.0)


def reduce_scatter_times(nbytes, n_devices, link: Link,
                         model: CollectiveTimingModel) -> np.ndarray:
    """Vectorized :func:`repro.hardware.collectives.reduce_scatter_time`."""
    return _ring_collective_times(
        "reduce-scatter", np.asarray(nbytes, dtype=np.float64),
        _as_i64(n_devices), link, model,
    )


def all_gather_times(nbytes, n_devices, link: Link,
                     model: CollectiveTimingModel) -> np.ndarray:
    """Vectorized :func:`repro.hardware.collectives.all_gather_time`."""
    return _ring_collective_times(
        "all-gather", np.asarray(nbytes, dtype=np.float64),
        _as_i64(n_devices), link, model,
    )


def cluster_all_reduce_times(
    nbytes,
    group_size,
    cluster: ClusterSpec,
    overlapped: bool = False,
) -> np.ndarray:
    """Vectorized :meth:`repro.hardware.cluster.ClusterSpec.all_reduce_time`.

    Splits the grid into single-node (flat intra-link ring) and
    hierarchical (reduce-scatter / inter-node all-reduce / all-gather)
    entries, mirroring the scalar dispatch.
    """
    nbytes = np.asarray(np.broadcast_arrays(
        np.asarray(nbytes, dtype=np.float64), _as_i64(group_size)
    )[0], dtype=np.float64)
    group = np.broadcast_arrays(nbytes, _as_i64(group_size))[1]
    out = np.zeros(nbytes.shape, dtype=np.float64)
    active = (group > 1) & (nbytes > 0)
    if cluster.inter_link is None:
        single = active
    else:
        single = active & (group <= cluster.devices_per_node)
    if single.any():
        out[single] = all_reduce_times(
            nbytes[single], group[single], cluster.intra_link,
            cluster.allreduce_algorithm, cluster.collective_model,
        )
    multi = active & ~single
    if multi.any():
        local = cluster.devices_per_node
        local_arr = np.full(int(multi.sum()), local, dtype=np.int64)
        nodes = _ceil_div(group[multi], local)
        shard = nbytes[multi] / local
        out[multi] = (
            reduce_scatter_times(nbytes[multi], local_arr,
                                 cluster.intra_link,
                                 cluster.collective_model)
            + all_reduce_times(shard, nodes, cluster.inter_link,
                               cluster.allreduce_algorithm,
                               cluster.collective_model)
            + all_gather_times(nbytes[multi], local_arr,
                               cluster.intra_link,
                               cluster.collective_model)
        )
    if overlapped:
        out = out * cluster.comm_interference_slowdown
    return out


# -- closed-form two-stream schedule ------------------------------------

#: Stream tags consumed by :func:`closed_form_breakdown`.
KIND_COMPUTE = "compute"
KIND_SERIALIZED = "comm"
KIND_OVERLAPPED = "comm-async"


def closed_form_breakdown(
    kinds: Sequence[str],
    durations: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Breakdown of the two-stream schedule, vectorized over configs.

    Args:
        kinds: Per-slot stream tag (:data:`KIND_COMPUTE`,
            :data:`KIND_SERIALIZED`, or :data:`KIND_OVERLAPPED`) in trace
            order.
        durations: Per-slot duration arrays, one array per slot, all of a
            common length (one entry per configuration).

    Returns:
        ``(compute_time, serialized_comm_time, overlapped_comm_time,
        iteration_time)`` arrays, identical to running
        :func:`repro.sim.executor.schedule_with_durations` per config.
    """
    if len(kinds) != len(durations):
        raise ValueError(
            f"got {len(durations)} duration arrays for {len(kinds)} slots"
        )
    if not durations:
        zero = np.zeros(0, dtype=np.float64)
        return zero, zero, zero, zero
    shape = np.asarray(durations[0]).shape
    compute = np.zeros(shape, dtype=np.float64)
    serialized = np.zeros(shape, dtype=np.float64)
    overlapped = np.zeros(shape, dtype=np.float64)
    # Finish time of the blocking (compute + serialized comm) chain and of
    # the async comm stream's last task; both advance in trace order.
    blocking = np.zeros(shape, dtype=np.float64)
    async_finish = np.zeros(shape, dtype=np.float64)
    has_async = False
    for kind, duration in zip(kinds, durations):
        duration = np.asarray(duration, dtype=np.float64)
        if kind == KIND_OVERLAPPED:
            # Issued when the preceding blocking op finishes; FIFO on its
            # own stream, so it also waits for the previous async op.
            async_finish = np.maximum(async_finish, blocking) + duration
            overlapped = overlapped + duration
            has_async = True
        elif kind == KIND_SERIALIZED:
            blocking = blocking + duration
            serialized = serialized + duration
        elif kind == KIND_COMPUTE:
            blocking = blocking + duration
            compute = compute + duration
        else:
            raise ValueError(f"unknown slot kind {kind!r}")
    iteration = np.maximum(blocking, async_finish) if has_async else blocking
    return compute, serialized, overlapped, iteration


def scalar_durations_reference(kinds: List[str],
                               durations: List[float]) -> List[float]:
    """Tiny self-check helper used by tests (single-config closed form)."""
    arrays = [np.asarray([d], dtype=np.float64) for d in durations]
    return [float(a[0]) for a in closed_form_breakdown(kinds, arrays)]
