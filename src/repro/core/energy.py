"""Energy accounting for training iterations (Section 5 context).

The paper's Section 5 weighs communication remedies partly by their
"area, power, and carbon cost".  This module prices an operator trace in
joules using standard accelerator energy coefficients: picojoules per
FLOP, per HBM byte, and per link byte -- so the Comp-vs-Comm question can
also be asked of the energy budget, where data movement dominates even
harder than it dominates time.

Coefficients default to contemporary 5-7nm-class accelerator estimates;
they are explicit parameters, not calibration.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.core.hyperparams import Precision
from repro.models.graph import CommOp, ElementwiseOp, GemmOp, Trace

__all__ = ["EnergyCoefficients", "EnergyBreakdown", "trace_energy"]


class EnergyCoefficients(Frozen):
    """Energy cost coefficients.

    Attributes:
        pj_per_flop: Compute energy, picojoules per (fp16) FLOP.
        pj_per_hbm_byte: HBM access energy, picojoules per byte.
        pj_per_link_byte: Inter-device link energy, picojoules per byte.
        idle_watts: Static power burned for the iteration's duration
            (0 disables; duration-based accounting is left to callers
            that have an execution result).
    """

    __slots__ = ("pj_per_flop", "pj_per_hbm_byte", "pj_per_link_byte",
                 "idle_watts")

    pj_per_flop: float
    pj_per_hbm_byte: float
    pj_per_link_byte: float
    idle_watts: float

    def __init__(self, pj_per_flop: float = 0.8, pj_per_hbm_byte: float = 60.0,
                 pj_per_link_byte: float = 250.0,
                 idle_watts: float = 0.0) -> None:
        self._set(pj_per_flop=pj_per_flop, pj_per_hbm_byte=pj_per_hbm_byte,
                  pj_per_link_byte=pj_per_link_byte, idle_watts=idle_watts)
        if min(self.pj_per_flop, self.pj_per_hbm_byte,
               self.pj_per_link_byte) <= 0:
            raise ValueError("energy coefficients must be positive")
        if self.idle_watts < 0:
            raise ValueError("idle_watts must be non-negative")


#: Ring all-reduce traffic factor per device: ~2x the buffer.
_RING_TRAFFIC_FACTOR = 2.0


class EnergyBreakdown(Frozen):
    """Per-device energy of one iteration, in joules."""

    __slots__ = ("compute_j", "memory_j", "communication_j")

    compute_j: float
    memory_j: float
    communication_j: float

    def __init__(self, compute_j: float, memory_j: float,
                 communication_j: float) -> None:
        self._set(compute_j=compute_j, memory_j=memory_j,
                  communication_j=communication_j)

    @property
    def total_j(self) -> float:
        return self.compute_j + self.memory_j + self.communication_j

    @property
    def communication_fraction(self) -> float:
        """Communication's share of the energy budget."""
        if self.total_j == 0:
            return 0.0
        return self.communication_j / self.total_j

    @property
    def data_movement_fraction(self) -> float:
        """HBM + link energy over the total (the data-movement wall)."""
        if self.total_j == 0:
            return 0.0
        return (self.memory_j + self.communication_j) / self.total_j


def trace_energy(
    trace: Trace,
    coefficients: EnergyCoefficients = EnergyCoefficients(),
) -> EnergyBreakdown:
    """Price a trace's operators in joules per device.

    GEMMs pay compute energy per FLOP plus HBM energy for their operand
    traffic; element-wise kernels pay HBM energy for their read/write
    traffic; collectives pay link energy for the ring's per-device
    traffic plus HBM energy to stage the buffer.
    """
    precision: Precision = trace.model.precision
    compute_pj = 0.0
    memory_pj = 0.0
    comm_pj = 0.0
    for op in trace.ops:
        if isinstance(op, GemmOp):
            compute_pj += op.flops * coefficients.pj_per_flop
            memory_pj += (op.shape.bytes_moved(precision)
                          * coefficients.pj_per_hbm_byte)
        elif isinstance(op, ElementwiseOp):
            traffic = op.elements * precision.bytes * op.rw_factor
            memory_pj += traffic * coefficients.pj_per_hbm_byte
        elif isinstance(op, CommOp):
            group = trace.group_size(op.group)
            if group <= 1:
                continue
            wire = op.nbytes * _RING_TRAFFIC_FACTOR * (group - 1) / group
            comm_pj += wire * coefficients.pj_per_link_byte
            memory_pj += (op.nbytes * 2  # stage out + in
                          * coefficients.pj_per_hbm_byte)
    return EnergyBreakdown(
        compute_j=compute_pj * 1e-12,
        memory_j=memory_pj * 1e-12,
        communication_j=comm_pj * 1e-12,
    )
