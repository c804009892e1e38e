"""Trace analytics: arithmetic intensity and roofline classification.

The paper's hardware-evolution methodology rests on a premise stated in
Section 4.2.3: key Transformer operations (GEMMs) are *compute-bound*
(GShard reports > 85% peak FLOPS utilization) with low memory-bandwidth
utilization, which is why compute FLOPS and network bandwidth -- not
memory bandwidth -- are the axes worth scaling.  This module makes that
premise checkable: per-operator arithmetic intensity, the device's
roofline ridge point, and a census of where a trace's time and FLOPs sit
relative to it.
"""

from __future__ import annotations

from repro._frozen import Frozen
from repro.core.hyperparams import Precision
from repro.hardware.cluster import ClusterSpec
from repro.hardware.specs import DeviceSpec
from repro.models.graph import ElementwiseOp, GemmOp, Trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, op_duration

__all__ = [
    "arithmetic_intensity",
    "ridge_intensity",
    "OperatorCensus",
    "roofline_census",
]


def arithmetic_intensity(op, precision: Precision) -> float:
    """FLOPs per byte of off-chip traffic for a compute operator.

    Raises:
        TypeError: for communication ops (no compute roofline applies).
    """
    if isinstance(op, GemmOp):
        return op.flops / op.shape.bytes_moved(precision)
    if isinstance(op, ElementwiseOp):
        # Element-wise kernels do O(1) FLOPs per element over
        # rw_factor bytes of traffic each.
        return 1.0 / (precision.bytes * op.rw_factor)
    raise TypeError(f"no arithmetic intensity for {type(op)!r}")


def ridge_intensity(device: DeviceSpec,
                    precision: Precision = Precision.FP16) -> float:
    """The device's roofline ridge point, FLOPs/byte.

    Operators above the ridge are compute-bound; below it, memory-bound.
    """
    return device.flops(precision) / device.mem_bw


class OperatorCensus(Frozen):
    """Where a trace's compute operators sit on the roofline.

    Attributes:
        compute_bound_time: Seconds in compute-bound operators.
        memory_bound_time: Seconds in memory-bound operators.
        compute_bound_flops: FLOPs executed by compute-bound GEMMs.
        total_gemm_flops: All GEMM FLOPs in the trace.
        gemm_count: GEMM operators inspected.
        compute_bound_gemms: GEMMs above the ridge point.
    """

    __slots__ = ("compute_bound_time", "memory_bound_time",
                 "compute_bound_flops", "total_gemm_flops", "gemm_count",
                 "compute_bound_gemms")

    compute_bound_time: float
    memory_bound_time: float
    compute_bound_flops: int
    total_gemm_flops: int
    gemm_count: int
    compute_bound_gemms: int

    def __init__(self, compute_bound_time: float, memory_bound_time: float,
                 compute_bound_flops: int, total_gemm_flops: int,
                 gemm_count: int, compute_bound_gemms: int) -> None:
        self._set(compute_bound_time=compute_bound_time,
                  memory_bound_time=memory_bound_time,
                  compute_bound_flops=compute_bound_flops,
                  total_gemm_flops=total_gemm_flops, gemm_count=gemm_count,
                  compute_bound_gemms=compute_bound_gemms)

    @property
    def compute_bound_time_fraction(self) -> float:
        total = self.compute_bound_time + self.memory_bound_time
        if total == 0:
            return 0.0
        return self.compute_bound_time / total

    @property
    def compute_bound_flop_fraction(self) -> float:
        if self.total_gemm_flops == 0:
            return 0.0
        return self.compute_bound_flops / self.total_gemm_flops


def roofline_census(trace: Trace, cluster: ClusterSpec,
                    timing: TimingModels = DEFAULT_TIMING) -> OperatorCensus:
    """Classify a trace's compute operators against the device roofline."""
    ridge = ridge_intensity(cluster.device, trace.model.precision)
    compute_time = 0.0
    memory_time = 0.0
    compute_flops = 0
    total_flops = 0
    gemms = 0
    bound_gemms = 0
    for op in trace.ops:
        if not op.is_compute:
            continue
        duration = op_duration(op, trace, cluster, timing)
        intensity = arithmetic_intensity(op, trace.model.precision)
        if isinstance(op, GemmOp):
            gemms += 1
            total_flops += op.flops
            if intensity >= ridge:
                bound_gemms += 1
                compute_flops += op.flops
        if intensity >= ridge:
            compute_time += duration
        else:
            memory_time += duration
    return OperatorCensus(
        compute_bound_time=compute_time,
        memory_bound_time=memory_time,
        compute_bound_flops=compute_flops,
        total_gemm_flops=total_flops,
        gemm_count=gemms,
        compute_bound_gemms=bound_gemms,
    )
