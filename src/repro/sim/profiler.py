"""Kernel-level profiler for the simulated testbed (rocProf stand-in).

The paper measures GPU kernel execution times with rocProf and feeds them
into operator-model fitting and ROI extraction (Section 4.3.3).  This
module produces the same artifact from simulator runs: one
:class:`KernelRecord` per operator with its isolated execution time and
the shape metadata needed to fit scaling laws.

Profiles also carry the *profiling cost* of obtaining them -- the wall
time the real testbed would have spent executing the profiled iteration --
which is what the 2100x profiling-speedup accounting (Section 4.3.8)
compares.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from repro._frozen import Frozen
from repro.hardware.cluster import ClusterSpec
from repro.models.graph import CommOp, ElementwiseOp, GemmOp, Op, Trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, op_duration

__all__ = ["KernelRecord", "Profile", "profile_trace"]


class KernelRecord(Frozen):
    """One profiled kernel execution.

    Attributes:
        name: Operator name (as in :mod:`repro.models.layers`).
        category: Kernel family: ``"gemm"``, the element-wise kind
            (``"layernorm"``, ``"softmax"``, ...), or the collective kind
            (``"all-reduce"``, ...).
        duration: Isolated execution time, seconds.
        meta: Shape metadata -- GEMMs carry ``m/n/k/batch``, element-wise
            kernels carry ``elements``, collectives carry ``nbytes`` and
            ``group_size``.
        layer: Layer index the kernel belongs to.
        phase: ``"forward"`` or ``"backward"``.
    """

    __slots__ = ("name", "category", "duration", "meta", "layer", "phase")

    name: str
    category: str
    duration: float
    meta: Mapping[str, int]
    layer: int
    phase: str

    def __init__(self, name: str, category: str, duration: float,
                 meta: Mapping[str, int], layer: int = 0,
                 phase: str = "forward") -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        if not isinstance(meta, dict):
            meta = dict(meta)
        self._set(name=name, category=category, duration=duration, meta=meta,
                  layer=layer, phase=phase)


class Profile(Frozen):
    """An ordered collection of kernel records from one profiled run."""

    __slots__ = ("records",)

    records: Tuple[KernelRecord, ...]

    def __init__(self, records: Sequence[KernelRecord]) -> None:
        self._set(records=tuple(records))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def total_time(self) -> float:
        """Summed kernel time: the testbed wall time this profile cost."""
        return sum(r.duration for r in self.records)

    def first(self, name: str) -> KernelRecord:
        """The first record with ``name``.

        Raises:
            KeyError: if no record matches.
        """
        for record in self.records:
            if record.name == name:
                return record
        raise KeyError(f"no kernel record named {name!r}")

    def hotspots(self, n: int = 10) -> List[Tuple[str, float, float]]:
        """Top-``n`` operators by aggregate time.

        Returns (name, total seconds, fraction of profile) tuples,
        hottest first; repeated executions of the same operator name
        (across layers) aggregate.

        Raises:
            ValueError: for a non-positive ``n``.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        totals: Dict[str, float] = {}
        for record in self.records:
            totals[record.name] = totals.get(record.name, 0.0) + (
                record.duration
            )
        overall = self.total_time or 1.0
        ranked = sorted(totals.items(), key=lambda item: item[1],
                        reverse=True)
        return [(name, duration, duration / overall)
                for name, duration in ranked[:n]]


def _record_for(op: Op, duration: float, trace: Trace) -> KernelRecord:
    if isinstance(op, GemmOp):
        category = "gemm"
        meta = {
            "m": op.shape.m,
            "n": op.shape.n,
            "k": op.shape.k,
            "batch": op.shape.batch,
        }
    elif isinstance(op, ElementwiseOp):
        category = op.kind
        meta = {"elements": op.elements}
    elif isinstance(op, CommOp):
        category = op.collective.value
        meta = {
            "nbytes": op.nbytes,
            "group_size": trace.group_size(op.group),
        }
    else:
        raise TypeError(f"unknown op type: {type(op)!r}")
    return KernelRecord(
        name=op.name,
        category=category,
        duration=duration,
        meta=meta,
        layer=op.layer,
        phase=op.phase.value,
    )


def profile_trace(trace: Trace, cluster: ClusterSpec,
                  timing: TimingModels = DEFAULT_TIMING) -> Profile:
    """Profile every operator of a trace in isolation (Section 4.3.3).

    Matches the paper's profiling methodology: operators are measured
    individually (avoiding interference) rather than in overlapped
    execution.
    """
    records = [
        _record_for(op, op_duration(op, trace, cluster, timing), trace)
        for op in trace.ops
    ]
    return Profile(records=tuple(records))
