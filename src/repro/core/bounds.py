"""Admissible analytical interval bounds on sweep metrics (bound-and-prune).

The paper's Section-3 premise is that a Transformer layer's compute
flops and communication bytes are *closed forms* in (H, SL, B, TP, DP).
The batch engine still pays the per-element jitter hashing on every
feasible grid point, even when a query only asks for a top-k, a Pareto
frontier, or an extremum.  This module prices a whole chunk *without*
hashing: for each stored metric it computes an **admissible interval**

    ``lower <= exact <= upper``   (per configuration, as IEEE floats)

Every exact duration is a jitter-free base times ``1 + amp * (2u -
1)`` with ``u`` in ``[0, 1)``.  The bound pass computes that base with
the exact engine's own code (:func:`repro.core.batch._op_durations`
under jitter-free timing and collective models: one stacked call per
operator family, on the DP-free run representatives) and scales each op
by ``1 - amp`` and ``1 + amp`` for its family:

* **GEMM** and **element-wise**: the jitter-free base carries the exact
  base's bits, and ``base * (1 + amp * (2u - 1))`` is monotone in ``u``
  in IEEE arithmetic, so ``base * (1 - amp)`` .. ``base * (1 + amp)``
  brackets it with no margin.
* **Collectives**: the same scaling plus :data:`_ENVELOPE_MARGIN`,
  because hierarchical (multi-node) all-reduces jitter their three
  phases independently while the bound scales the summed base.

Per-slot intervals propagate through
:func:`repro.sim.vectorized.closed_form_breakdown` -- a composition of
additions and maxima, monotone nondecreasing in every slot duration --
by running it, on the same row map, once on the lower durations and
once on the upper ones.  ``exposed_comm_time`` is ``max(0,
async_finish - blocking)``: it rises with the overlapped (async)
durations and falls with the blocking ones.  Its lower bound schedules
lower async and upper blocking durations, its upper bound the reverse,
and each widens by :data:`_EXPOSED_ULPS` ulps of the iteration time
per slot for the engine's differently rounded ``iteration - compute -
serialized``.

Projection mode (``batch_project``) has no jitter at all: bounds are
the exact projected metrics with zero interval width.

:func:`chunk_bounds` evaluates a chunk straight from
:class:`~repro.core.gridplan.GridSpec` index space -- no jitter
hashing -- and aggregates per-metric ``(min lower, max upper)``
envelopes that the pruning protocol of :mod:`repro.core.reducers`
compares against the incumbent.  Envelopes are recomputed on every
pruned sweep and never cached: a chunk's envelope costs about as much
to compute as to read back, and an uncached bound cannot outlive the
formulas that produced it.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro._frozen import Frozen
from repro.core.batch import (
    ConfigGrid,
    _dp_free_rows,
    _DpFreeRows,
    _layer_ops,
    _op_durations,
    _schedule,
    _slot_kind,
)
from repro.core.gridplan import (
    DEFAULT_CHUNK_SIZE,
    GridSpec,
    aggregate_bounds,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.models.layers import COMM, ELEMENTWISE, GEMM, OpRecord
from repro.sim import vectorized

if TYPE_CHECKING:
    from repro.core.evolution import HardwareScenario
    from repro.core.projection import OperatorModelSuite

__all__ = [
    "BOUNDED_METRICS",
    "MetricBounds",
    "ChunkBounds",
    "bound_grid",
    "chunk_bounds",
]

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

#: Relative safety margin of the collective bounds, absorbing the float
#: re-association between a hierarchical all-reduce's three separately
#: jittered phases and its scaled summed base (~1e-16 per operation;
#: 1e-9 is orders of magnitude of headroom at negligible widening).
_ENVELOPE_MARGIN = 1e-9

#: Absolute exposed-comm margin, in ulps of the iteration time per
#: slot: covers the rounding of the exact ``iteration - compute -
#: serialized`` against the bound's own, each at most about one ulp
#: per slot.
_EXPOSED_ULPS = 4

#: The four stored breakdown columns, in closed-form output order.
_STORED = ("compute_time", "serialized_comm_time",
           "overlapped_comm_time", "iteration_time")


class MetricBounds(Frozen):
    """Per-configuration interval bounds, one array pair per metric.

    Attributes:
        lower: Metric name -> admissible lower-bound array.
        upper: Metric name -> admissible upper-bound array (same order
            as ``lower``; every array pair satisfies ``lower <= exact
            <= upper`` elementwise against the batch engine).
    """

    __slots__ = ("lower", "upper")
    # Array fields: equality is identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    lower: Dict[str, np.ndarray]
    upper: Dict[str, np.ndarray]

    def __init__(self, lower: Dict[str, np.ndarray],
                 upper: Dict[str, np.ndarray]) -> None:
        self._set(lower=lower, upper=upper)

    def __len__(self) -> int:
        return int(self.lower["iteration_time"].shape[0])


class ChunkBounds(NamedTuple):
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


# -- per-op duration bounds ----------------------------------------------


def _op_bound_durations(
    ops: Sequence[OpRecord],
    grid: ConfigGrid,
    rows: _DpFreeRows,
    cluster: ClusterSpec,
    timing: TimingModels,
) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Per-op (lower, upper) duration arrays: the exact engine's
    jitter-free durations scaled by ``1 - amp`` and ``1 + amp`` of the
    op's family.

    Each array has one entry per DP-free run, or per row for the ops
    that read DP, as :func:`repro.core.batch._op_durations` returns.
    """
    comm = cluster.collective_model
    base = _op_durations(
        ops, grid, rows,
        cluster.replace(collective_model=comm.without_jitter()),
        timing.without_jitter(),
    )
    gemm_amp = timing.gemm.jitter_amplitude
    ew_amp = timing.elementwise.jitter_amplitude
    comm_amp = comm.jitter_amplitude
    scales = {
        GEMM: (1.0 - gemm_amp, 1.0 + gemm_amp),
        ELEMENTWISE: (1.0 - ew_amp, 1.0 + ew_amp),
        COMM: ((1.0 - comm_amp) * (1.0 - _ENVELOPE_MARGIN),
               (1.0 + comm_amp) * (1.0 + _ENVELOPE_MARGIN)),
    }
    lower = [duration * scales[op.family][0]
             for op, duration in zip(ops, base)]
    upper = [duration * scales[op.family][1]
             for op, duration in zip(ops, base)]
    return lower, upper


# -- grid-level bounds ---------------------------------------------------


def _bound_execute(grid: ConfigGrid, cluster: ClusterSpec,
                   timing: TimingModels) -> MetricBounds:
    """Bounds for every row in one pass over the widest op list.

    Uses the exact engine's op list (:func:`repro.core.batch._layer_ops`),
    grouping and jitter-free timing, so each bound slot lines up with
    the exact slot it brackets.
    """
    ops = _layer_ops(grid)
    rows = _dp_free_rows(grid)
    lo, up = _op_bound_durations(ops, grid, rows, cluster, timing)
    lower = dict(zip(_STORED, _schedule(ops, lo, rows)))
    upper = dict(zip(_STORED, _schedule(ops, up, rows)))
    overlapped = [_slot_kind(op) == vectorized.KIND_OVERLAPPED
                  for op in ops]
    margin = (_EXPOSED_ULPS * len(ops)
              * np.spacing(upper["iteration_time"]))
    for side, asynchronous, blocking, sign in ((lower, lo, up, -1.0),
                                               (upper, up, lo, 1.0)):
        mixed = [a if is_async else b for is_async, a, b
                 in zip(overlapped, asynchronous, blocking)]
        compute, serialized, _, iteration = _schedule(ops, mixed, rows)
        side["exposed_comm_time"] = np.maximum(
            0.0, iteration - compute - serialized + sign * margin)
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
        mode: ``"execute"`` (jitter brackets around the jitter-free
            timing models) or ``"project"`` (deterministic: zero-width
            bounds).
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
    :func:`repro.core.gridplan.aggregate_bounds`.  Never hashes a
    jitter key -- this is the cheap phase-1 pass of the bound-and-prune
    scheduler.
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
