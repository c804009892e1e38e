"""Exact chunk bounds for the bound-and-prune scheduler.

The paper's Section-3 premise is that a Transformer layer's compute
flops and communication bytes are *closed forms* in (H, SL, B, TP, DP),
so a sweep can certify that a chunk cannot change a top-k, a Pareto
frontier or an extremum before reducing it.  The pruning protocol of
:mod:`repro.core.reducers` reads a chunk-level envelope: per metric, the
min of the rows' lower bounds and the max of their upper bounds
(:func:`repro.core.gridplan.aggregate_bounds`).

The bounds here are the **exact** metrics, ``lower == exact == upper``
as IEEE floats, computed through the same engine call the exhaustive
sweep makes: :func:`~repro.core.batch.batch_execute` reading the
sweep's block :class:`~repro.core.batch.DurationTable`, or
:func:`~repro.core.batch.batch_project`.  The key stage of a serial
sweep times each DP-free key once per block of chunks, so a chunk's
exact value costs only its row stage -- less than any interval around
it, which would have to redo the key stage without jitter.  The
breakdown behind the bounds comes back with them, and a chunk that
cannot be pruned is reduced from it, so no chunk is evaluated twice.

Bounds are recomputed on every pruned sweep and never cached: only
the exact chunk records of reduced chunks are stored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro._frozen import Frozen
from repro.core.batch import (
    BatchBreakdown,
    ConfigGrid,
    batch_execute,
    batch_project,
)
from repro.hardware.cluster import ClusterSpec
from repro.hardware.timing import DEFAULT_TIMING, TimingModels

if TYPE_CHECKING:
    from repro.core.batch import DurationTable
    from repro.core.evolution import HardwareScenario
    from repro.core.projection import OperatorModelSuite

__all__ = [
    "BOUNDED_METRICS",
    "MetricBounds",
    "ChunkBounds",
    "bound_grid",
]

#: Metrics with bounds (the stored breakdown columns plus the derived
#: exposed-comm slack): the metrics a prunable reducer may select on.
BOUNDED_METRICS: Tuple[str, ...] = (
    "compute_time",
    "serialized_comm_time",
    "overlapped_comm_time",
    "iteration_time",
    "exposed_comm_time",
)


class MetricBounds(Frozen):
    """Per-configuration bounds, one array pair per metric.

    Attributes:
        lower: Metric name -> lower-bound array.
        upper: Metric name -> upper-bound array (same order as
            ``lower``).  Both equal the exact engine's values bit for
            bit.
        breakdown: The engine breakdown the bounds were read from.
    """

    __slots__ = ("lower", "upper", "breakdown")
    # Array fields: equality is identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    lower: Dict[str, np.ndarray]
    upper: Dict[str, np.ndarray]
    breakdown: BatchBreakdown

    def __init__(self, lower: Dict[str, np.ndarray],
                 upper: Dict[str, np.ndarray],
                 breakdown: BatchBreakdown) -> None:
        self._set(lower=lower, upper=upper, breakdown=breakdown)

    def __len__(self) -> int:
        return int(self.lower["iteration_time"].shape[0])


class ChunkBounds(NamedTuple):
    """Chunk-level bound envelope: the coarsest certificate pruning needs.

    Attributes:
        lower: Metric -> min over rows of the per-row lower bounds.
        upper: Metric -> max over rows of the per-row upper bounds.
    """

    lower: Dict[str, float]
    upper: Dict[str, float]


def bound_grid(grid: ConfigGrid,
               cluster: Optional[ClusterSpec] = None,
               timing: Optional[TimingModels] = None,
               mode: str = "execute",
               suite: Optional[OperatorModelSuite] = None,
               scenario: Optional[HardwareScenario] = None,
               table: Optional[DurationTable] = None,
               start: int = 0) -> MetricBounds:
    """Per-row metric bounds for a whole config grid: the exact metrics.

    For every metric in :data:`BOUNDED_METRICS` and every row ``i``,
    ``lower[metric][i] == exact[metric][i] == upper[metric][i]`` holds
    bit for bit against the corresponding engine
    (:func:`~repro.core.batch.batch_execute` in ``"execute"`` mode,
    :func:`~repro.core.batch.batch_project` in ``"project"`` mode) --
    the contract checker layer 5 (:func:`repro.sim.checker.prune_oracle`)
    enforces.

    Args:
        mode: ``"execute"`` (ground-truth timing models) or
            ``"project"`` (fitted operator models).
        suite / scenario: Projection inputs, as in ``batch_project``.
        table / start: Execute mode only: a duration table holding the
            grid's rows from ``start`` on, as in ``batch_execute``.
    """
    if mode == "execute":
        from repro.hardware.cluster import mi210_node

        breakdown = batch_execute(
            grid,
            cluster if cluster is not None else mi210_node(),
            timing if timing is not None else DEFAULT_TIMING,
            table=table, start=start,
        )
    elif mode == "project":
        if suite is None:
            raise ValueError("project-mode bounds require a fitted suite")
        breakdown = batch_project(grid, suite, scenario=scenario)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    exact = {name: np.asarray(getattr(breakdown, name), dtype=np.float64)
             for name in BOUNDED_METRICS}
    return MetricBounds(lower=exact, upper=exact, breakdown=breakdown)
