"""Shared sweep definitions and per-config metrics for Figures 10-13.

The serialized-communication figures sweep three (H, SL) model lines --
sized after T-NLG, PaLM, and a 3x-PaLM futuristic Transformer -- across
TP degrees; the overlapped-communication figures sweep H against the
``SL * B`` product at the paper's fixed TP of 16.

Every helper evaluates its configurations one by one on the scalar
reference path: the sweeps are at most a few dozen points, too few for
the batch engine's NumPy import to pay for itself.  When a runtime
:class:`~repro.runtime.session.Session` is passed in, ground-truth runs
are validated under its ``check`` flag; nothing below a whole experiment
result is cached.  The ``*_sweep`` helpers return results in input
order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.core import roi
from repro.core.evolution import HardwareScenario
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.projection import OperatorModelSuite
from repro.core.strategy import sweep_num_heads
from repro.hardware.cluster import ClusterSpec
from repro.models.trace import layer_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, execute_trace

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = [
    "SerializedLine",
    "SERIALIZED_LINES",
    "TP_DEGREES",
    "HIGHLIGHTED_CONFIGS",
    "OVERLAP_H_VALUES",
    "OVERLAP_SLB_VALUES",
    "OVERLAP_TP",
    "OVERLAP_DP",
    "serialized_model",
    "serialized_fraction",
    "serialized_sweep",
    "overlap_model",
    "overlap_ratio",
    "overlap_sweep",
]

class SerializedLine(Frozen):
    """One (H, SL) line of the Figure 10/12 sweep."""

    __slots__ = ("hidden", "seq_len", "label")

    hidden: int
    seq_len: int
    label: str

    def __init__(self, hidden: int, seq_len: int, label: str) -> None:
        self._set(hidden=hidden, seq_len=seq_len, label=label)


#: The paper's three model lines: a medium Transformer (~T-NLG), one of
#: today's largest (~PaLM), and a large futuristic Transformer (PaLM-3x).
SERIALIZED_LINES: Tuple[SerializedLine, ...] = (
    SerializedLine(hidden=4096, seq_len=1024, label="~T-NLG (H=4K)"),
    SerializedLine(hidden=16384, seq_len=2048, label="~PaLM (H=16K)"),
    SerializedLine(hidden=65536, seq_len=4096, label="PaLM-3x (H=64K)"),
)

#: Table 3 TP degrees.
TP_DEGREES: Tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256)

#: The blue-highlighted (H, TP) pairs of Figure 10: each model line at
#: its required TP degree (Section 4.3.4).
HIGHLIGHTED_CONFIGS: Tuple[Tuple[int, int], ...] = (
    (4096, 16),
    (16384, 64),
    (65536, 256),
)

#: Figure 11/13 sweep: H values, SL*B values (B = 1), fixed TP = 16.
OVERLAP_H_VALUES: Tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)
OVERLAP_SLB_VALUES: Tuple[int, ...] = (1024, 2048, 4096, 8192)
OVERLAP_TP: int = 16
#: DP degree for the overlap sweep.  Results are DP-degree agnostic
#: (Section 4.3.2): ring all-reduce traffic per device is ~constant at
#: (N-1)/N of the buffer.
OVERLAP_DP: int = 16


def serialized_model(hidden: int, seq_len: int, tp: int,
                     batch: int = 1) -> ModelConfig:
    """Sweep model for one serialized-communication configuration."""
    return ModelConfig(
        name=f"fig10-H{hidden}-SL{seq_len}",
        hidden=hidden,
        seq_len=seq_len,
        batch=batch,
        num_heads=sweep_num_heads(hidden, tp),
    )


def serialized_fraction(
    hidden: int,
    seq_len: int,
    tp: int,
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario] = None,
    suite: Optional[OperatorModelSuite] = None,
    timing: TimingModels = DEFAULT_TIMING,
    session: Optional["Session"] = None,
) -> float:
    """Serialized-communication fraction of one configuration.

    Args:
        scenario: Optional hardware-evolution scaling (Figure 12).
        suite: When given, use operator-model *projection* (the paper's
            method) instead of ground-truth simulation.
        session: When given, ground-truth runs go through
            :meth:`~repro.runtime.session.Session.execute` (validated
            under the session's ``check`` flag).
    """
    model = serialized_model(hidden, seq_len, tp)
    parallel = ParallelConfig(tp=tp, dp=1)
    trace = layer_trace(model, parallel)
    target_cluster = scenario.apply(cluster) if scenario else cluster
    if suite is not None:
        from repro.core.evolution import scale_durations
        durations = suite.project_durations(trace)
        if scenario is not None:
            durations = scale_durations(trace, durations, scenario)
        from repro.sim.executor import schedule_with_durations
        result = schedule_with_durations(trace, durations)
    elif session is not None:
        result = session.execute(trace, target_cluster, timing)
    else:
        result = execute_trace(trace, target_cluster, timing)
    return result.breakdown.serialized_comm_fraction


def serialized_sweep(
    configs: Sequence[Tuple[int, int, int]],
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario] = None,
    suite: Optional[OperatorModelSuite] = None,
    timing: TimingModels = DEFAULT_TIMING,
    session: Optional["Session"] = None,
) -> List[float]:
    """Serialized fractions for a grid of ``(hidden, seq_len, tp)``,
    one :func:`serialized_fraction` per configuration, in input order."""
    return [
        serialized_fraction(hidden, seq_len, tp, cluster,
                            scenario=scenario, suite=suite, timing=timing,
                            session=session)
        for hidden, seq_len, tp in configs
    ]


def overlap_model(hidden: int, slb: int) -> ModelConfig:
    """Sweep model for one overlapped-communication configuration."""
    return ModelConfig(
        name=f"fig11-H{hidden}-SLB{slb}",
        hidden=hidden,
        seq_len=slb,
        batch=1,
        num_heads=sweep_num_heads(hidden, OVERLAP_TP),
    )


def overlap_ratio(
    hidden: int,
    slb: int,
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario] = None,
    timing: TimingModels = DEFAULT_TIMING,
) -> float:
    """Overlapped comm as a fraction of ROI compute (Figure 11/13 metric).

    Hardware evolution scales the ROI's compute and communication times
    by the scenario's respective factors (Section 4.3.6), so the ratio
    is the scenario-independent base ratio times
    ``compute_scale / network_scale``.
    """
    model = overlap_model(hidden, slb)
    parallel = ParallelConfig(tp=OVERLAP_TP, dp=OVERLAP_DP)
    ratio = roi.overlap_roi_timing(model, parallel, cluster,
                                   timing).overlapped_pct_of_compute
    if scenario is not None:
        ratio *= scenario.compute_scale / scenario.network_scale
    return ratio


def overlap_sweep(
    points: Sequence[Tuple[int, int]],
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario] = None,
    timing: TimingModels = DEFAULT_TIMING,
) -> List[float]:
    """Overlap ratios for a grid of ``(hidden, slb)`` points, one
    :func:`overlap_ratio` per point, in input order."""
    return [
        overlap_ratio(hidden, slb, cluster, scenario=scenario,
                      timing=timing)
        for hidden, slb in points
    ]
