"""Process-parallel streaming sweeps over lazy config grids.

The batch engine (:mod:`repro.core.batch`) evaluates one materialized
grid quickly, but a serious design-space search -- the full
``(H, SL, B, TP, DP)`` x hardware-scenario product Section 4.3.6
implies -- is 10^5..10^6+ points: materializing every column and
intermediate in one process either exhausts memory or leaves all but
one core idle.  :func:`stream_sweep` fixes both at once:

* chunks come lazily from a :class:`~repro.core.gridplan.GridSpec`,
  so peak additional memory is bounded by the chunk size and
  :data:`TABLE_KEYS`, never by the grid;
* a serial exhaustive sweep in execute mode times each operator shape
  once per block of chunks, not once per chunk: the block's
  :class:`~repro.core.batch.DurationTable` covers the DP-free keys its
  feasible rows use (at most :data:`TABLE_KEYS`, unless one chunk uses
  more), and each chunk only gathers its rows from it, schedules and
  reduces (:func:`_evaluate_in_blocks`).  Pruned sweeps and pool
  workers evaluate chunk by chunk;
* an exhaustive sweep with ``jobs > 1`` evaluates on a pool of
  **processes** (the NumPy evaluation is CPU-bound); each worker
  receives the grid *spec* once at startup and thereafter only integer
  chunk indices -- no arrays ever cross the pipe inbound.  This pool is
  the package's only parallelism;
* results come back as compact reducer payloads
  (:mod:`repro.core.reducers`), kilobytes per chunk regardless of
  chunk size.

Determinism contract: for a fixed spec/reducers/evaluation context, the
result is bit-identical for any ``chunk_size`` and ``jobs``.  Chunk
boundaries are fixed by the spec, and reducer merges are commutative
and associative (``tests/test_reducers.py::TestMergeLaws``), so records
are merged in whatever order they arrive: cache replays first, then
chunks as they complete.

One scheduler serves every sweep.  It replays cached exact chunks,
then evaluates the rest.  ``prune=True`` adds a **bound-and-prune**
step in between: it computes cheap admissible chunk intervals
(:mod:`repro.core.bounds`; recomputed on every run, never cached, so
exact chunk records are the only thing a sweep stores), orders the chunks best-bound-first, and
skips any chunk whose interval proves -- via the reducers'
:meth:`~repro.core.reducers.Reducer.can_prune` protocol -- that none of
its rows can reach the output against the incumbent merged so far.  A
pruned sweep always runs serially in this process, merging each chunk
before the next prune test: a pool's in-flight chunks would only make
the incumbent staler and evaluate more rows.  The *result* stays
bit-identical to the exhaustive sweep, and ``meta["prune"]`` is the
same for any ``jobs``.  Any non-prunable reducer (``Histogram``,
``Collect``) disables pruning automatically and the sweep reports why
-- no silent result caps, ever.
"""

from __future__ import annotations

import os
import time
from collections import deque
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

    from repro.core.batch import DurationTable
    from repro.core.projection import OperatorModelSuite

from repro.core.gridplan import DEFAULT_CHUNK_SIZE, GridChunk, GridSpec
from repro.core.reducers import EvaluatedChunk, Reducer
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.runtime.cache import CACHE_VERSION, ResultCache
from repro.runtime.keys import cache_key, fingerprint
from repro.sim.checkflag import check_enabled

__all__ = ["SweepResult", "stream_sweep", "resolve_jobs", "MODES"]

#: Supported evaluation modes: ground-truth execution vs paper-style
#: operator-model projection.
MODES = ("execute", "project")

#: Most DP-free keys ``(H, SL, B, TP)`` one duration table covers
#: (:func:`_evaluate_in_blocks`), unless a single chunk uses more.  The
#: block's chunks stay in memory until its table is read, and the key
#: stage's NumPy temporaries grow with its keys: on seeded search-scan
#: queries 2,048 keys raised peak RSS by about 9%, and 512 saved little
#: time over timing every chunk.
TABLE_KEYS = 1024

#: One chunk record: raw rows, evaluated rows, one payload per
#: reducer.  JSON-serializable end to end (cacheable as-is).
ChunkRecord = Dict[str, object]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 -> 1, negative -> CPU count."""
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return max(1, os.cpu_count() or 1)
    return jobs


class SweepResult(NamedTuple):
    """Outcome of one streaming sweep.

    Attributes:
        reductions: Finalized output per reducer, keyed by label.
        raw_points: Cartesian-product size before constraints.
        evaluated_points: Rows that survived constraints and were
            evaluated.
        chunk_count: Chunks the grid was split into.
        chunk_size: Target rows per chunk the grid was cut with.
        jobs: Worker processes actually used: the requested count for
            an exhaustive sweep that evaluated more than one chunk on
            the pool, else 1 (pruned sweeps always run serially).
        mode: ``"execute"`` or ``"project"``.
        wall_time_s: End-to-end wall time of the sweep.
        cache_hits: Chunks replayed from a cache instead of evaluated
            (only nonzero when the caller supplies a cache).
        meta: ``spec_key`` plus, when ``prune=True`` was requested, the
            ``prune`` accounting (read-only and empty by default).
    """

    reductions: Dict[str, Dict[str, object]]
    raw_points: int
    evaluated_points: int
    chunk_count: int
    chunk_size: int
    jobs: int
    mode: str
    wall_time_s: float
    cache_hits: int = 0
    meta: Mapping[str, object] = MappingProxyType({})


class _SweepContext(NamedTuple):
    """Everything a worker needs, shipped once per process at startup."""

    spec: GridSpec
    reducers: Tuple[Reducer, ...]
    chunk_size: int
    mode: str
    cluster: ClusterSpec
    timing: TimingModels
    suite: Optional[OperatorModelSuite]
    scenario: Optional[object]
    check: bool


def _evaluate_chunk(ctx: _SweepContext, chunk: GridChunk,
                    table: Optional[DurationTable] = None,
                    start: int = 0) -> ChunkRecord:
    """Evaluate one chunk and reduce it to per-reducer payloads.

    Shared verbatim by the serial path and the pool workers, so both
    produce identical records by construction.  ``table`` and ``start``
    are passed on to :func:`~repro.core.batch.batch_execute`.
    """
    from repro.core.batch import batch_execute, batch_project

    if len(chunk) == 0:
        return {
            "raw": chunk.raw_rows,
            "evaluated": 0,
            "payloads": [reducer.empty() for reducer in ctx.reducers],
        }
    if ctx.mode == "execute":
        breakdown = batch_execute(chunk.grid, ctx.cluster, ctx.timing,
                                  table=table, start=start)
    else:
        breakdown = batch_project(chunk.grid, ctx.suite,
                                  scenario=ctx.scenario)
    if ctx.check:
        from repro.sim.checker import validate_batch

        validate_batch(breakdown)
    evaluated = EvaluatedChunk(offsets=chunk.offsets,
                               columns=chunk.columns(),
                               breakdown=breakdown)
    return {
        "raw": chunk.raw_rows,
        "evaluated": len(chunk),
        "payloads": [reducer.observe(evaluated)
                     for reducer in ctx.reducers],
    }


def _evaluate_in_blocks(ctx: _SweepContext, indices: Sequence[int]
                        ) -> Iterator[Tuple[int, ChunkRecord]]:
    """Evaluate execute-mode chunks in index order, one duration table
    per block of consecutive chunks.

    A block grows until its rows would use more than :data:`TABLE_KEYS`
    DP-free keys.  Its :class:`~repro.core.batch.DurationTable` covers
    exactly the keys its rows use, so rows dropped by constraints and
    chunks replayed from a cache are never timed; a row's key is its raw
    offset floor-divided by the length of the DP axis.  Each chunk then
    reads its rows from the table: the gather, the schedule and the
    reducers.
    """
    from repro.core.batch import DurationTable

    dp_count = len(ctx.spec.dp)
    block: List[GridChunk] = []
    block_keys = 0
    last_key = -1

    def evaluate_block() -> Iterator[Tuple[int, ChunkRecord]]:
        table = DurationTable.of_chunks(
            [chunk.grid for chunk in block],
            [chunk.offsets for chunk in block], ctx.spec.dp,
            ctx.cluster, ctx.timing) if block_keys else None
        start = 0
        for chunk in block:
            yield chunk.index, _evaluate_chunk(ctx, chunk, table, start)
            start += len(chunk)

    for index in indices:
        chunk = ctx.spec.chunk(index, ctx.chunk_size)
        keys = chunk.offsets // dp_count
        runs = int((keys[1:] != keys[:-1]).sum()) + 1 if len(keys) else 0
        new_keys = runs - (runs > 0 and int(keys[0]) == last_key)
        if block_keys and block_keys + new_keys > TABLE_KEYS:
            yield from evaluate_block()
            block, block_keys, new_keys = [], 0, runs
        block.append(chunk)
        block_keys += new_keys
        if runs:
            last_key = int(keys[-1])
    yield from evaluate_block()


# Per-worker context, installed once by the pool initializer so tasks
# are bare chunk indices (minimal IPC).
_WORKER_CTX: Optional[_SweepContext] = None


def _init_worker(ctx: _SweepContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _eval_chunk_task(index: int) -> Tuple[int, ChunkRecord]:
    ctx = _WORKER_CTX
    assert ctx is not None, "worker initialized without context"
    return index, _evaluate_chunk(ctx, ctx.spec.chunk(index, ctx.chunk_size))


def _priority_order(reducers: Sequence[Reducer], bounds: Dict[int, object],
                    pending: Sequence[int]) -> List[int]:
    """Best-bound-first chunk order across all reducer objectives.

    Each reducer contributes one or more priority keys per chunk; every
    key column is ranked independently (value, then chunk index), and a
    chunk's priority is its best rank across columns -- so a chunk that
    is most promising for *any* objective is evaluated early, tightening
    that objective's incumbent as fast as possible.  Deterministic for a
    fixed spec and reducer set.
    """
    pending = list(pending)
    if not pending:
        return []
    key_rows = [
        tuple(key for reducer in reducers
              for key in reducer.priority_keys(bounds[index]))
        for index in pending
    ]
    best_rank = [len(pending)] * len(pending)
    for column in range(len(key_rows[0])):
        ranked = sorted(range(len(pending)),
                        key=lambda p: (key_rows[p][column], pending[p]))
        for rank, position in enumerate(ranked):
            if rank < best_rank[position]:
                best_rank[position] = rank
    return [pending[p] for p in sorted(range(len(pending)),
                                       key=lambda p: (best_rank[p],
                                                      pending[p]))]


def _record_key(ctx: _SweepContext) -> Callable[[int], str]:
    """Chunk index -> cache key of its exact record.

    The context fingerprint covers the reducer set, the mode, cluster,
    timing and scenario; in project mode the suite is the one fitted
    for that cluster and timing.
    """
    context = fingerprint("stream-chunk", CACHE_VERSION,
                          tuple(reducer.key() for reducer in ctx.reducers),
                          ctx.mode, ctx.cluster, ctx.timing, ctx.scenario)
    return lambda index: cache_key(context, ctx.spec.chunk_key(
        index, ctx.chunk_size))


def stream_sweep(spec: GridSpec,
                 reducers: Sequence[Reducer],
                 cluster: Optional[ClusterSpec] = None,
                 timing: Optional[TimingModels] = None,
                 mode: str = "execute",
                 suite: Optional[OperatorModelSuite] = None,
                 scenario: Optional[object] = None,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 jobs: Optional[int] = 1,
                 check: Optional[bool] = None,
                 prune: bool = False,
                 cache: Optional[ResultCache] = None) -> SweepResult:
    """Evaluate a lazy grid in chunks and reduce it online.

    Args:
        spec: The lazy grid (axes + constraints).
        reducers: Online reducers applied per chunk; their finalized
            outputs form ``SweepResult.reductions`` keyed by label.
        mode: ``"execute"`` (ground-truth batch engine against
            ``cluster``/``timing``) or ``"project"`` (operator-model
            projection via ``suite``, optionally scaled by
            ``scenario``).  For execute-mode scenario studies, pass the
            already-scaled cluster (``scenario.apply(cluster)``), as the
            scalar sweeps do.
        chunk_size: Target rows per chunk.  Chunk boundaries fix the
            cache keys and the pruning granularity; they do not change
            the timing work of a serial exhaustive sweep, which times
            each block of up to :data:`TABLE_KEYS` DP-free keys once
            whatever the chunk size.  Peak additional memory grows with
            the chunk size and that block size, never with the grid.
        jobs: Worker processes for an exhaustive sweep.  1 (default)
            evaluates serially in this process; ``n > 1`` uses a
            process pool with a bounded in-flight window of ``2 * n``
            chunk indices when more than one chunk needs evaluating.
            Negative means CPU count.  Pruned sweeps ignore it and run
            serially.
        check: Run the invariant validator on every chunk's breakdown;
            ``None`` defers to ``REPRO_CHECK``.
        prune: Use the bound-and-prune scheduler, serially in this
            process.  Results stay bit-identical to the exhaustive
            sweep; only wall time and ``meta["prune"]`` accounting
            change.  Falls back to exhaustive evaluation (with
            ``meta["prune"]["reason"]`` explaining why) when any
            reducer is not prunable.
        cache: Optional :class:`~repro.runtime.cache.ResultCache` for
            per-chunk records.  Exact chunk records are keyed by the
            chunk (:meth:`~repro.core.gridplan.GridSpec.chunk_key`), the
            reducer set, the mode and the cluster/timing/scenario
            context, so pruned and exhaustive sweeps share them and a
            rerun -- or a larger sweep sharing chunks -- replays instead
            of re-evaluating.  Bounds are recomputed on every pruned
            run, never cached.  Used only in this process.

    Raises:
        ValueError: Unknown mode, or project mode without a suite.
        Exception: The first worker exception, re-raised here after
            cancelling outstanding chunks.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if mode == "project" and suite is None:
        raise ValueError("project mode requires a fitted suite")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    start = time.perf_counter()
    ctx = _SweepContext(
        spec=spec,
        reducers=tuple(reducers),
        chunk_size=chunk_size,
        mode=mode,
        cluster=cluster if cluster is not None else mi210_node(),
        timing=timing if timing is not None else DEFAULT_TIMING,
        suite=suite,
        scenario=scenario,
        check=check_enabled(check),
    )
    workers = resolve_jobs(jobs)
    n_chunks = spec.chunk_count(chunk_size)
    meta: Dict[str, object] = {"spec_key": spec.content_key()}
    if prune:
        blockers = [reducer.label for reducer in ctx.reducers
                    if not reducer.prunable]
        if blockers:
            meta["prune"] = {
                "enabled": False,
                "reason": ("non-prunable reducer(s): "
                           + ", ".join(sorted(blockers))),
            }
            prune = False

    payloads = [reducer.empty() for reducer in ctx.reducers]
    evaluated = 0

    def merge(record: ChunkRecord) -> None:
        nonlocal evaluated
        evaluated += int(record["evaluated"])
        for i, reducer in enumerate(ctx.reducers):
            payloads[i] = reducer.merge(payloads[i], record["payloads"][i])

    key_of = _record_key(ctx) if cache is not None else None

    def lookup(index: int) -> Optional[ChunkRecord]:
        record = cache.get(key_of(index)) if cache is not None else None
        return record if isinstance(record, dict) else None

    def store(index: int, record: ChunkRecord) -> None:
        if cache is not None:
            cache.put(key_of(index), record)

    # Replay already-exact chunks first: in a pruned sweep they only
    # tighten the incumbent.
    pending: List[int] = []
    for index in range(n_chunks):
        cached = lookup(index)
        if cached is None:
            pending.append(index)
        else:
            merge(cached)
    cache_hits = n_chunks - len(pending)
    replayed = evaluated

    if prune:
        from repro.core.bounds import ChunkBounds, chunk_bounds

        bounds: Dict[int, ChunkBounds] = {
            index: chunk_bounds(ctx.spec, index, ctx.chunk_size,
                                mode=ctx.mode, cluster=ctx.cluster,
                                timing=ctx.timing, suite=ctx.suite,
                                scenario=ctx.scenario)
            for index in pending
        }
        feasible = evaluated + sum(entry.rows for entry in bounds.values())
        order = _priority_order(
            ctx.reducers, bounds,
            [index for index in pending if bounds[index].rows > 0])
    else:
        order = pending

    def finish(index: int, record: ChunkRecord) -> None:
        store(index, record)
        merge(record)

    pruned_chunks = 0
    if prune:
        # Each chunk merges before the next prune test.
        workers = 1
        for index in order:
            if all(reducer.can_prune(payload, bounds[index])
                   for reducer, payload in zip(ctx.reducers, payloads)):
                pruned_chunks += 1
                continue
            finish(index, _evaluate_chunk(
                ctx, ctx.spec.chunk(index, ctx.chunk_size)))
    elif workers == 1 or len(order) < 2:
        workers = 1
        if ctx.mode == "execute":
            for index, record in _evaluate_in_blocks(ctx, order):
                finish(index, record)
        else:
            for index in order:
                finish(index, _evaluate_chunk(
                    ctx, ctx.spec.chunk(index, ctx.chunk_size)))
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_init_worker,
                                   initargs=(ctx,))
        inflight: Deque[Future] = deque()
        try:
            for index in order:
                inflight.append(pool.submit(_eval_chunk_task, index))
                if len(inflight) >= 2 * workers:
                    finish(*inflight.popleft().result())
            while inflight:
                finish(*inflight.popleft().result())
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    if prune:
        exact_chunks = len(order) - pruned_chunks
        meta["prune"] = {
            "enabled": True,
            "chunks": n_chunks,
            "cached_chunks": cache_hits,
            "cached_points": replayed,
            "empty_chunks": len(pending) - len(order),
            "pruned_chunks": pruned_chunks,
            "exact_chunks": exact_chunks,
            "feasible_points": feasible,
            "exact_points": evaluated - replayed,
            "exact_chunk_fraction": exact_chunks / max(1, len(order)),
            "exact_point_fraction": ((evaluated - replayed)
                                     / max(1, feasible - replayed)),
        }
    return SweepResult(
        reductions={reducer.label: reducer.finalize(payload)
                    for reducer, payload in zip(ctx.reducers, payloads)},
        raw_points=spec.raw_size,
        evaluated_points=evaluated,
        chunk_count=n_chunks,
        chunk_size=chunk_size,
        jobs=workers,
        mode=mode,
        wall_time_s=time.perf_counter() - start,
        cache_hits=cache_hits,
        meta=meta,
    )
