"""Admissible analytical interval bounds on sweep metrics (bound-and-prune).

The paper's Section-3 premise is that a Transformer layer's compute
flops and communication bytes are *closed forms* in (H, SL, B, TP, DP).
The batch engine still pays the full per-slot timing models -- including
the per-element jitter hashing, the dominant cost -- on every feasible
grid point, even when a query only asks for a top-k, a Pareto frontier,
or an extremum.  This module prices a whole chunk *without* evaluating
it: for each stored metric it computes an **admissible interval**

    ``lower <= exact <= upper``   (per configuration, as IEEE floats)

from the same flop/byte laws, using min/max achievable efficiency
envelopes per operator family instead of the exact fitted models:

* **GEMM**: the exact model's efficiency is ``peak * tile_eff *
  reuse_eff * wave_eff * k_eff * m_eff * split_penalty``, maximized over
  tile candidates, where every tile factor is <= 1.  The upper
  efficiency envelope drops the tile factors (``peak * k_eff * m_eff``);
  the lower envelope evaluates the largest tile candidate directly with
  SIMD ``pow`` (any single candidate under-approximates the max).  The
  memory-roofline term and launch overhead are kept exactly, duration
  bounds take ``max(compute, memory)`` from below and ``compute +
  memory`` from above, and a relative :data:`_ENVELOPE_MARGIN` absorbs
  the float re-association between the envelope formulas and the exact
  model.
* **Element-wise**: the jitter-free base *is* the exact base (identical
  code path, identical bits), so the interval is just ``base * (1 -
  amp)`` .. ``base * (1 + amp)`` with no margin: the jitter multiplier
  ``1 + amp * (2u - 1)`` with ``u`` in ``[0, 1)`` is bracketed by
  ``1 - amp`` and ``1 + amp`` monotonically in floating point.
* **Collectives**: same jitter bracketing around the jitter-free
  vectorized base, plus :data:`_ENVELOPE_MARGIN` because hierarchical
  (multi-node) all-reduces jitter their three phases independently
  while the bound factors the summed base.

The envelopes are evaluated like the exact engine's timing: one
stacked call per operator family (:func:`repro.core.batch._time_groups`),
on the DP-free run representatives, and per row only for the DP-group
all-reduces.  Per-slot intervals propagate through
:func:`repro.sim.vectorized.closed_form_breakdown` -- a composition of
additions and maxima, monotone nondecreasing in every slot duration --
by running it, on the same row map, once on the lower durations and
once on the upper ones.
``exposed_comm_time = max(0, iteration - compute - serialized)`` is
monotone up in the iteration and down in the others, so its bounds mix
the opposite corners of the box.

Projection mode (``batch_project``) has no jitter at all: bounds are
the exact projected metrics with zero interval width.

:func:`chunk_bounds` evaluates a chunk straight from
:class:`~repro.core.gridplan.GridSpec` index space -- no schedules, no
jitter hashing -- and aggregates per-metric ``(min lower, max upper)``
envelopes that the pruning protocol of :mod:`repro.core.reducers`
compares against the incumbent.  :data:`BOUND_MODEL_VERSION` must be
bumped whenever any bound formula changes; it is part of the chunk
bound cache keys (:meth:`repro.core.gridplan.GridSpec.chunk_key`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.batch import (
    ConfigGrid,
    _dp_free_rows,
    _DpFreeRows,
    _layer_ops,
    _schedule,
    _time_groups,
)
from repro.core.gridplan import (
    DEFAULT_CHUNK_SIZE,
    GridSpec,
    aggregate_bounds,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.models.layers import ELEMENTWISE, GEMM, OpRecord
from repro.sim import vectorized

if TYPE_CHECKING:
    from repro.core.evolution import HardwareScenario
    from repro.core.projection import OperatorModelSuite

__all__ = [
    "BOUND_MODEL_VERSION",
    "BOUNDED_METRICS",
    "MetricBounds",
    "ChunkBounds",
    "bound_grid",
    "chunk_bounds",
]

#: Version of the bound formulas.  Part of every chunk-bound cache key:
#: bump it when any envelope changes so stale cached bounds can never
#: mix with a newer pruning run.
BOUND_MODEL_VERSION = 1

#: Metrics with admissible interval bounds (the stored breakdown columns
#: plus the derived exposed-comm slack).  Fraction metrics are excluded:
#: a ratio of intervals is not tight enough to prune on.
BOUNDED_METRICS: Tuple[str, ...] = (
    "compute_time",
    "serialized_comm_time",
    "overlapped_comm_time",
    "iteration_time",
    "exposed_comm_time",
)

#: Relative safety margin absorbing float re-association between the
#: envelope formulas and the exact models (~1e-16 per operation; 1e-9
#: is orders of magnitude of headroom at negligible interval widening).
_ENVELOPE_MARGIN = 1e-9

#: The four stored breakdown columns, in closed-form output order.
_STORED = ("compute_time", "serialized_comm_time",
           "overlapped_comm_time", "iteration_time")


@dataclass(frozen=True, eq=False)
class MetricBounds:
    """Per-configuration interval bounds, one array pair per metric.

    Attributes:
        lower: Metric name -> admissible lower-bound array.
        upper: Metric name -> admissible upper-bound array (same order
            as ``lower``; every array pair satisfies ``lower <= exact
            <= upper`` elementwise against the batch engine).
    """

    lower: Dict[str, np.ndarray]
    upper: Dict[str, np.ndarray]

    def __len__(self) -> int:
        return int(self.lower["iteration_time"].shape[0])


@dataclass(frozen=True)
class ChunkBounds:
    """Chunk-level bound envelope: the coarsest certificate pruning needs.

    Attributes:
        index: Chunk position in the spec's deterministic ordering.
        raw_rows: Raw-product rows the chunk covers.
        rows: Rows surviving the constraints (0 = nothing to evaluate).
        lower: Metric -> min over rows of the per-row lower bounds.
        upper: Metric -> max over rows of the per-row upper bounds.
    """

    index: int
    raw_rows: int
    rows: int
    lower: Dict[str, float]
    upper: Dict[str, float]

    def to_record(self) -> Dict[str, object]:
        """JSON-serializable form (cacheable as-is)."""
        return {
            "index": self.index,
            "raw": self.raw_rows,
            "rows": self.rows,
            "lower": dict(self.lower),
            "upper": dict(self.upper),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "ChunkBounds":
        """Inverse of :meth:`to_record`."""
        return cls(
            index=int(record["index"]),
            raw_rows=int(record["raw"]),
            rows=int(record["rows"]),
            lower={k: float(v) for k, v in record["lower"].items()},
            upper={k: float(v) for k, v in record["upper"].items()},
        )


# -- per-family duration envelopes ---------------------------------------


def _tile_product_floor(m: np.ndarray, n: np.ndarray, k: np.ndarray,
                        batch: np.ndarray, model) -> np.ndarray:
    """Under-approximation of the exact model's max-over-tiles product.

    Evaluates ``tile_eff * reuse_eff * wave_eff * split_penalty`` for the
    largest tile candidate only, with direct SIMD ``pow`` for the reuse
    term.  The exact model maximizes the product over all candidates, so
    any single candidate is a valid floor (up to pow's 1-ulp difference,
    covered by :data:`_ENVELOPE_MARGIN`).
    """
    tile = model.TILE_CANDIDATES[0]
    tile_m = vectorized._pow2_at_most(m, tile)
    tile_n = vectorized._pow2_at_most(n, tile)
    tiles_m = vectorized._ceil_div(m, tile_m)
    tiles_n = vectorized._ceil_div(n, tile_n)
    tile_eff = (m * n) / (tiles_m * tiles_n * tile_m * tile_n)
    reuse_eff = np.power((tile_m * tile_n) / float(model.tile ** 2),
                         model.TILE_REUSE_EXP / 2)
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
    waves = vectorized._ceil_div(total_tiles, model.compute_units)
    wave_eff = total_tiles / (waves * model.compute_units)
    return tile_eff * reuse_eff * wave_eff * split_penalty


def _gemm_bound_durations(m, n, k, batch, device, precision,
                          model) -> Tuple[np.ndarray, np.ndarray]:
    """(lower, upper) duration arrays bracketing the exact GEMM model."""
    m, n, k = (np.asarray(m, np.int64), np.asarray(n, np.int64),
               np.asarray(k, np.int64))
    batch = np.asarray(batch, np.int64)
    flops = 2 * batch * m * n * k
    peak = device.flops(precision)
    k_eff = k / (k + model.k_half)
    m_eff = m / (m + model.m_half)
    eff_cap = device.peak_compute_efficiency * k_eff * m_eff
    bytes_moved = precision.bytes * batch * (m * k + k * n + m * n)
    t_memory = bytes_moved / (device.mem_bw * device.peak_memory_efficiency)
    overhead = device.compute_launch_overhead
    lower = np.maximum(flops / (peak * eff_cap), t_memory) + overhead
    eff_floor = eff_cap * _tile_product_floor(m, n, k, batch, model)
    upper = flops / (peak * eff_floor) + t_memory + overhead
    amp = model.jitter_amplitude
    return (lower * ((1.0 - amp) * (1.0 - _ENVELOPE_MARGIN)),
            upper * ((1.0 + amp) * (1.0 + _ENVELOPE_MARGIN)))


def _op_bound_durations(
    ops: Sequence[OpRecord],
    grid: ConfigGrid,
    rows: _DpFreeRows,
    cluster: ClusterSpec,
    timing: TimingModels,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-op (lower, upper) duration arrays, one stacked call per family.

    Stacks the ops exactly as :func:`repro.core.batch._op_durations`
    does (:func:`repro.core.batch._time_groups`), with the exact timing
    models replaced by the family envelopes, so each array has one
    entry per DP-free run, or per row for the ops that read DP.
    """
    device, precision = cluster.device, grid.precision
    ew_quiet = timing.elementwise.without_jitter()
    ew_amp = timing.elementwise.jitter_amplitude
    comm_amp = cluster.collective_model.jitter_amplitude
    comm_lo = (1.0 - comm_amp) * (1.0 - _ENVELOPE_MARGIN)
    comm_up = (1.0 + comm_amp) * (1.0 + _ENVELOPE_MARGIN)
    quiet_cluster = replace(
        cluster, collective_model=cluster.collective_model.without_jitter()
    )

    def evaluate(family: str, column: Callable
                 ) -> Tuple[np.ndarray, np.ndarray]:
        if family == GEMM:
            return _gemm_bound_durations(
                column("m"), column("n"), column("k"), column("batch"),
                device, precision, timing.gemm,
            )
        if family == ELEMENTWISE:
            base = vectorized.elementwise_times(
                column("elements"), device, precision, column("rw_factor"),
                column("kind"), ew_quiet,
            )
            return base * (1.0 - ew_amp), base * (1.0 + ew_amp)
        base = vectorized.cluster_all_reduce_times(
            column("nbytes"), column("group"), quiet_cluster,
            overlapped=column("overlappable"),
        )
        return base * comm_lo, base * comm_up

    return _time_groups(ops, grid, rows, evaluate)


# -- grid-level bounds ---------------------------------------------------


def _exposed_bounds(lower: Dict[str, np.ndarray],
                    upper: Dict[str, np.ndarray]) -> None:
    """Attach exposed-comm bounds from the opposite corners of the box."""
    lower["exposed_comm_time"] = np.maximum(
        0.0,
        lower["iteration_time"] - upper["compute_time"]
        - upper["serialized_comm_time"],
    )
    upper["exposed_comm_time"] = np.maximum(
        0.0,
        upper["iteration_time"] - lower["compute_time"]
        - lower["serialized_comm_time"],
    )


def _bound_execute(grid: ConfigGrid, cluster: ClusterSpec,
                   timing: TimingModels) -> MetricBounds:
    """Bounds for every row in one pass over the widest op list.

    Uses the exact engine's op list (:func:`repro.core.batch._layer_ops`)
    and grouping, with the exact timing models replaced by the family
    envelopes, so each bound slot lines up with the exact slot it
    brackets.
    """
    ops = _layer_ops(grid)
    rows = _dp_free_rows(grid)
    lo_durations, up_durations = _op_bound_durations(ops, grid, rows,
                                                     cluster, timing)
    lower = dict(zip(_STORED, _schedule(ops, lo_durations, rows)))
    upper = dict(zip(_STORED, _schedule(ops, up_durations, rows)))
    _exposed_bounds(lower, upper)
    return MetricBounds(lower=lower, upper=upper)


def _bound_project(grid: ConfigGrid, suite: OperatorModelSuite,
                   scenario: Optional[HardwareScenario]) -> MetricBounds:
    """Projection is deterministic: exact metrics, zero interval width."""
    from repro.core.batch import batch_project

    breakdown = batch_project(grid, suite, scenario=scenario)
    exact = {name: np.asarray(getattr(breakdown, name), dtype=np.float64)
             for name in BOUNDED_METRICS}
    return MetricBounds(lower=dict(exact), upper=dict(exact))


def bound_grid(grid: ConfigGrid,
               cluster: Optional[ClusterSpec] = None,
               timing: Optional[TimingModels] = None,
               mode: str = "execute",
               suite: Optional[OperatorModelSuite] = None,
               scenario: Optional[HardwareScenario] = None) -> MetricBounds:
    """Admissible per-row metric bounds for a whole config grid.

    For every metric in :data:`BOUNDED_METRICS` and every row ``i``,
    ``lower[metric][i] <= exact[metric][i] <= upper[metric][i]`` holds
    against the corresponding engine (:func:`~repro.core.batch.
    batch_execute` in ``"execute"`` mode, :func:`~repro.core.batch.
    batch_project` in ``"project"`` mode) -- the contract checker layer
    5 (:func:`repro.sim.checker.prune_oracle`) enforces.

    Args:
        mode: ``"execute"`` (envelopes around the jittered timing
            models) or ``"project"`` (deterministic: zero-width bounds).
        suite / scenario: Projection inputs, as in ``batch_project``.
    """
    if mode == "execute":
        from repro.hardware.cluster import mi210_node

        return _bound_execute(
            grid,
            cluster if cluster is not None else mi210_node(),
            timing if timing is not None else DEFAULT_TIMING,
        )
    if mode == "project":
        if suite is None:
            raise ValueError("project-mode bounds require a fitted suite")
        return _bound_project(grid, suite, scenario)
    raise ValueError(f"unknown mode {mode!r}")


def chunk_bounds(spec: GridSpec,
                 index: int,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 mode: str = "execute",
                 cluster: Optional[ClusterSpec] = None,
                 timing: Optional[TimingModels] = None,
                 suite: Optional[OperatorModelSuite] = None,
                 scenario: Optional[HardwareScenario] = None
                 ) -> ChunkBounds:
    """Chunk-level bound envelope straight from grid index space.

    Builds the chunk's surviving rows (constraints included), bounds
    them with :func:`bound_grid`, and aggregates the per-metric
    ``(min lower, max upper)`` envelope via
    :func:`repro.core.gridplan.aggregate_bounds`.  Never touches the
    exact timing models or the jitter hashes -- this is the cheap
    phase-1 pass of the bound-and-prune scheduler.
    """
    chunk = spec.chunk(index, chunk_size)
    if len(chunk) == 0:
        return ChunkBounds(index=index, raw_rows=chunk.raw_rows, rows=0,
                           lower={}, upper={})
    bounds = bound_grid(chunk.grid, cluster=cluster, timing=timing,
                        mode=mode, suite=suite, scenario=scenario)
    lower, upper = aggregate_bounds(bounds.lower, bounds.upper)
    return ChunkBounds(index=index, raw_rows=chunk.raw_rows,
                       rows=len(chunk), lower=lower, upper=upper)
