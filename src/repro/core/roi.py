"""Region-of-interest (ROI) extraction (Section 4.2.2, Step 2a).

For the overlapped-communication (data-parallel) analysis, the paper does
not run entire training iterations: it extracts exactly the regions that
interact -- the backprop weight-gradient (WG) and input-gradient (IG)
GEMMs of the weight-bearing sub-layers, and the weight-gradient
all-reduces they feed -- and profiles only those, in isolation (to avoid
interference and observe optimal characteristics, Section 4.3.3).

The ratio ``AR time / backprop GEMM time`` is the Figure 11/13 metric:
below 1.0 the communication can hide entirely under compute (compute has
slack); at or above 1.0 it is exposed.
"""

from __future__ import annotations

from typing import List, Tuple

from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware.cluster import ClusterSpec
from repro.models.graph import CommOp, GemmOp, Op, Phase, Trace
from repro.models.trace import layer_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, op_duration

__all__ = [
    "OverlapRoi",
    "extract_overlap_roi",
    "OverlapRoiTiming",
    "overlap_roi_timing",
    "roi_profiling_speedup",
]


class OverlapRoi(Frozen):
    """The ops of one layer's overlapped-communication region.

    Attributes:
        compute_ops: Backprop IG/WG GEMMs of weight-bearing sub-layers.
        comm_ops: The overlappable (DP) weight-gradient all-reduces.
    """

    __slots__ = ("compute_ops", "comm_ops")

    compute_ops: Tuple[GemmOp, ...]
    comm_ops: Tuple[CommOp, ...]

    def __init__(self, compute_ops: Tuple[GemmOp, ...],
                 comm_ops: Tuple[CommOp, ...]) -> None:
        self._set(compute_ops=compute_ops, comm_ops=comm_ops)


def extract_overlap_roi(trace: Trace) -> OverlapRoi:
    """Extract the DP-overlap ROI from a training trace.

    Selects backward GEMMs of weight-bearing projections (the attention
    score/context GEMMs carry no weights, produce no gradients to reduce,
    and are excluded -- Section 3.4 analyzes WG/IG of weight sub-layers)
    and the overlappable gradient all-reduces.

    Raises:
        ValueError: if the trace contains no overlappable communication
            (the setup is not data parallel).
    """
    compute_ops = tuple(
        op for op in trace.ops
        if isinstance(op, GemmOp) and op.phase is Phase.BACKWARD
        and op.has_weights
    )
    comm_ops = tuple(
        op for op in trace.ops
        if isinstance(op, CommOp) and op.overlappable
    )
    if not comm_ops:
        raise ValueError(
            "trace has no overlappable communication; the overlap ROI is "
            "only defined for data-parallel setups (DP > 1)"
        )
    return OverlapRoi(compute_ops=compute_ops, comm_ops=comm_ops)


class OverlapRoiTiming(Frozen):
    """Timed overlap ROI for one configuration (a Figure 11 data point).

    Attributes:
        model: Analyzed model.
        parallel: Analyzed setup.
        compute_time: Summed backprop GEMM time, seconds.
        comm_time: Summed gradient all-reduce time, seconds.
    """

    __slots__ = ("model", "parallel", "compute_time", "comm_time")

    model: ModelConfig
    parallel: ParallelConfig
    compute_time: float
    comm_time: float

    def __init__(self, model: ModelConfig, parallel: ParallelConfig,
                 compute_time: float, comm_time: float) -> None:
        self._set(model=model, parallel=parallel, compute_time=compute_time,
                  comm_time=comm_time)

    @property
    def overlapped_pct_of_compute(self) -> float:
        """Communication as a fraction of compute time (>= 1.0: exposed)."""
        if self.compute_time == 0:
            return float("inf")
        return self.comm_time / self.compute_time

    @property
    def fully_hidden(self) -> bool:
        """True when compute slack can hide all the communication."""
        return self.comm_time <= self.compute_time


def overlap_roi_timing(
    model: ModelConfig,
    parallel: ParallelConfig,
    cluster: ClusterSpec,
    timing: TimingModels = DEFAULT_TIMING,
) -> OverlapRoiTiming:
    """Build, extract, and time the overlap ROI for one configuration."""
    trace = layer_trace(model, parallel)
    roi = extract_overlap_roi(trace)
    compute_time = sum(
        op_duration(op, trace, cluster, timing) for op in roi.compute_ops
    )
    comm_time = sum(
        op_duration(op, trace, cluster, timing) for op in roi.comm_ops
    )
    return OverlapRoiTiming(
        model=model,
        parallel=parallel,
        compute_time=compute_time,
        comm_time=comm_time,
    )


def roi_profiling_speedup(trace: Trace, cluster: ClusterSpec,
                          timing: TimingModels = DEFAULT_TIMING) -> float:
    """Profiling-cost saving of ROI extraction vs a full iteration.

    The paper reports ~1.5x from skipping the forward pass (and other
    non-ROI work) when studying overlapped communication (Section 4.3.8).
    Computed as full-iteration op time over ROI op time.
    """
    roi = extract_overlap_roi(trace)
    roi_ops: List[Op] = list(roi.compute_ops) + list(roi.comm_ops)
    roi_cost = sum(op_duration(op, trace, cluster, timing) for op in roi_ops)
    full_cost = sum(op_duration(op, trace, cluster, timing)
                    for op in trace.ops)
    if roi_cost == 0:
        raise ValueError("ROI has zero cost; cannot form a speedup ratio")
    return full_cost / roi_cost
