"""Process-parallel streaming sweeps over lazy config grids.

The batch engine (:mod:`repro.core.batch`) evaluates one materialized
grid quickly, but a serious design-space search -- the full
``(H, SL, B, TP, DP)`` x hardware-scenario product Section 4.3.6
implies -- is 10^5..10^6+ points: materializing every column and
intermediate in one process either exhausts memory or leaves all but
one core idle.  :func:`stream_sweep` fixes both at once:

* chunks come lazily from a :class:`~repro.core.gridplan.GridSpec`,
  so peak additional memory is O(chunk size), never O(grid);
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
(:mod:`repro.core.bounds`), orders the chunks best-bound-first, and
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
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:
    from concurrent.futures import Future

from repro.core.gridplan import DEFAULT_CHUNK_SIZE, GridSpec
from repro.core.projection import OperatorModelSuite
from repro.core.reducers import EvaluatedChunk, Reducer
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.runtime.cache import CACHE_VERSION, ResultCache
from repro.runtime.keys import cache_key, fingerprint
from repro.sim.checkflag import check_enabled
from repro.sim.executor import DEFAULT_TIMING, TimingModels

__all__ = ["SweepResult", "stream_sweep", "resolve_jobs", "MODES"]

#: Supported evaluation modes: ground-truth execution vs paper-style
#: operator-model projection.
MODES = ("execute", "project")

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


@dataclass(frozen=True)
class SweepResult:
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
            ``prune`` accounting.
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
    meta: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class _SweepContext:
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


def _evaluate_chunk(ctx: _SweepContext, index: int) -> ChunkRecord:
    """Evaluate one chunk and reduce it to per-reducer payloads.

    Shared verbatim by the serial path and the pool workers, so both
    produce identical records by construction.
    """
    from repro.core.batch import batch_execute, batch_project

    chunk = ctx.spec.chunk(index, ctx.chunk_size)
    if len(chunk) == 0:
        return {
            "raw": chunk.raw_rows,
            "evaluated": 0,
            "payloads": [reducer.empty() for reducer in ctx.reducers],
        }
    if ctx.mode == "execute":
        breakdown = batch_execute(chunk.grid, ctx.cluster, ctx.timing)
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


# Per-worker context, installed once by the pool initializer so tasks
# are bare chunk indices (minimal IPC).
_WORKER_CTX: Optional[_SweepContext] = None


def _init_worker(ctx: _SweepContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _eval_chunk_task(index: int) -> Tuple[int, ChunkRecord]:
    assert _WORKER_CTX is not None, "worker initialized without context"
    return index, _evaluate_chunk(_WORKER_CTX, index)


def _chunk_bound_record(ctx: _SweepContext, index: int) -> ChunkRecord:
    """Phase-1 task: one chunk's bound envelope as a JSON record."""
    from repro.core.bounds import chunk_bounds

    return chunk_bounds(
        ctx.spec, index, ctx.chunk_size, mode=ctx.mode,
        cluster=ctx.cluster, timing=ctx.timing, suite=ctx.suite,
        scenario=ctx.scenario,
    ).to_record()


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


def _record_key(ctx: _SweepContext,
                bound_version: Optional[int] = None) -> Callable[[int], str]:
    """Chunk index -> cache key of its exact record (or, given
    ``bound_version``, of its bound record).

    The context fingerprint covers the reducer set (exact records only),
    the mode, cluster, timing and scenario; in project mode the suite is
    the one fitted for that cluster and timing.
    """
    if bound_version is None:
        context = fingerprint("stream-chunk", CACHE_VERSION,
                              tuple(reducer.key() for reducer in ctx.reducers),
                              ctx.mode, ctx.cluster, ctx.timing, ctx.scenario)
    else:
        context = fingerprint("chunk-bounds", CACHE_VERSION, bound_version,
                              ctx.mode, ctx.cluster, ctx.timing, ctx.scenario)
    return lambda index: cache_key(context, ctx.spec.chunk_key(
        index, ctx.chunk_size, bound_version=bound_version))


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
        chunk_size: Target rows per chunk; peak additional memory is
            proportional to this, never to the grid.
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
            of re-evaluating.  With ``prune=True`` bound records are
            stored too, keyed under
            :data:`repro.core.bounds.BOUND_MODEL_VERSION`.  Used only in
            this process.

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

    def lookup(key_of: Callable[[int], str],
               index: int) -> Optional[ChunkRecord]:
        record = cache.get(key_of(index)) if cache is not None else None
        return record if isinstance(record, dict) else None

    def store(key_of: Callable[[int], str], index: int,
              record: ChunkRecord) -> None:
        if cache is not None:
            cache.put(key_of(index), record)

    # Replay already-exact chunks first: in a pruned sweep they only
    # tighten the incumbent.
    exact_key = _record_key(ctx) if cache is not None else None
    pending: List[int] = []
    for index in range(n_chunks):
        cached = lookup(exact_key, index)
        if cached is None:
            pending.append(index)
        else:
            merge(cached)
    cache_hits = n_chunks - len(pending)

    if prune:
        from repro.core.bounds import BOUND_MODEL_VERSION, ChunkBounds

        bound_key = (_record_key(ctx, BOUND_MODEL_VERSION)
                     if cache is not None else None)
        bounds: Dict[int, ChunkBounds] = {}
        for index in pending:
            record = lookup(bound_key, index)
            if record is None:
                record = _chunk_bound_record(ctx, index)
                store(bound_key, index, record)
            bounds[index] = ChunkBounds.from_record(record)
        feasible = evaluated + sum(entry.rows for entry in bounds.values())
        order = _priority_order(
            ctx.reducers, bounds,
            [index for index in pending if bounds[index].rows > 0])
    else:
        order = pending

    def finish(index: int, record: ChunkRecord) -> None:
        store(exact_key, index, record)
        merge(record)

    pruned_chunks = 0
    if prune or workers == 1 or len(order) < 2:
        # Each chunk merges before the next prune test.
        workers = 1
        for index in order:
            if prune and all(reducer.can_prune(payload, bounds[index])
                             for reducer, payload in zip(ctx.reducers,
                                                         payloads)):
                pruned_chunks += 1
                continue
            finish(index, _evaluate_chunk(ctx, index))
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
            "bound_version": BOUND_MODEL_VERSION,
            "chunks": n_chunks,
            "cached_chunks": cache_hits,
            "empty_chunks": len(pending) - len(order),
            "pruned_chunks": pruned_chunks,
            "exact_chunks": exact_chunks,
            "feasible_points": feasible,
            "exact_points": evaluated,
            "exact_chunk_fraction": exact_chunks / max(1, len(order)),
            "exact_point_fraction": evaluated / max(1, feasible),
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
