"""Shared sweep definitions and per-config metrics for Figures 10-13.

The serialized-communication figures sweep three (H, SL) model lines --
sized after T-NLG, PaLM, and a 3x-PaLM futuristic Transformer -- across
TP degrees; the overlapped-communication figures sweep H against the
``SL * B`` product at the paper's fixed TP of 16.

When a runtime :class:`~repro.runtime.session.Session` is passed in,
per-trace ground-truth durations replay from its keyed cache, and the
``*_sweep`` helpers return results in input order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

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

ENGINES = ("auto", "scalar", "batch")


def _resolve_engine(engine: Optional[str],
                    session: Optional["Session"]) -> str:
    """Effective engine choice: explicit argument, else the session's."""
    if engine is None:
        engine = "auto"
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "auto" and session is not None:
        return session.engine
    return engine


@dataclass(frozen=True)
class SerializedLine:
    """One (H, SL) line of the Figure 10/12 sweep."""

    hidden: int
    seq_len: int
    label: str


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
        session: When given, ground-truth per-trace durations replay
            from the session's keyed cache (bit-identical to a fresh
            ``execute_trace``).
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


def _serialized_sweep_batch(
    configs: Sequence[Tuple[int, int, int]],
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario],
    suite: Optional[OperatorModelSuite],
    timing: TimingModels,
    session: Optional["Session"],
) -> List[float]:
    """Batched serialized sweep (bit-identical to the scalar path)."""
    from repro.core.batch import ConfigGrid, batch_execute, batch_project

    grid = ConfigGrid.from_serialized(configs)
    if suite is not None:
        breakdown = batch_project(grid, suite, scenario=scenario)
    else:
        target = scenario.apply(cluster) if scenario else cluster
        if session is not None:
            breakdown = session.batch(grid, target, timing)
        else:
            breakdown = batch_execute(grid, target, timing)
    return [float(f) for f in breakdown.serialized_comm_fraction]


def serialized_sweep(
    configs: Sequence[Tuple[int, int, int]],
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario] = None,
    suite: Optional[OperatorModelSuite] = None,
    timing: TimingModels = DEFAULT_TIMING,
    session: Optional["Session"] = None,
    engine: Optional[str] = None,
) -> List[float]:
    """Serialized fractions for a grid of ``(hidden, seq_len, tp)``.

    With the batch engine (the default via ``"auto"``), the whole grid
    is evaluated at once through :mod:`repro.core.batch`; results are
    bit-identical to the scalar path.  ``"auto"`` falls back to the
    scalar path only on the ``ValueError`` of a grid-ineligible input;
    any other batch error propagates.  ``engine="scalar"`` forces the
    per-config reference path, which evaluates configurations one by
    one.  Fractions come back in input order either way.
    """
    resolved = _resolve_engine(engine, session)
    if resolved != "scalar":
        try:
            return _serialized_sweep_batch(configs, cluster, scenario,
                                           suite, timing, session)
        except ValueError:
            if resolved == "batch":
                raise
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
    session: Optional["Session"] = None,
) -> float:
    """Overlapped comm as a fraction of ROI compute (Figure 11/13 metric).

    Hardware evolution scales the ROI's compute and communication times
    by the scenario's respective factors (Section 4.3.6).  With a
    session, the scenario-independent base ratio replays from the keyed
    cache, so the Figure 11 grid and every Figure 13 scenario share one
    ROI timing per configuration.
    """
    model = overlap_model(hidden, slb)
    parallel = ParallelConfig(tp=OVERLAP_TP, dp=OVERLAP_DP)

    def compute_ratio() -> float:
        timing_result = roi.overlap_roi_timing(model, parallel, cluster,
                                               timing)
        return timing_result.overlapped_pct_of_compute

    if session is not None:
        ratio = session.memo("overlap-roi-ratio",
                             (model, parallel, cluster, timing),
                             compute_ratio)
    else:
        ratio = compute_ratio()
    if scenario is not None:
        ratio *= scenario.compute_scale / scenario.network_scale
    return ratio


def _overlap_sweep_batch(
    points: Sequence[Tuple[int, int]],
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario],
    timing: TimingModels,
    session: Optional["Session"],
) -> List[float]:
    """Batched overlap sweep (bit-identical to the scalar path)."""
    from repro.core.batch import ConfigGrid, batch_overlap_roi

    grid = ConfigGrid.from_overlap(points, tp=OVERLAP_TP, dp=OVERLAP_DP)

    def compute() -> List[float]:
        compute_time, comm_time = batch_overlap_roi(grid, cluster, timing)
        return [
            float("inf") if c == 0 else float(r / c)
            for r, c in zip(comm_time, compute_time)
        ]

    if session is not None:
        ratios = session.memo("overlap-roi-grid",
                              (grid.key(), cluster, timing), compute)
    else:
        ratios = compute()
    if scenario is not None:
        factor = scenario.compute_scale / scenario.network_scale
        ratios = [ratio * factor for ratio in ratios]
    return list(ratios)


def overlap_sweep(
    points: Sequence[Tuple[int, int]],
    cluster: ClusterSpec,
    scenario: Optional[HardwareScenario] = None,
    timing: TimingModels = DEFAULT_TIMING,
    session: Optional["Session"] = None,
    engine: Optional[str] = None,
) -> List[float]:
    """Overlap ratios for a grid of ``(hidden, slb)`` points.

    Batch-engine contract mirrors :func:`serialized_sweep` (whole grid
    at once, bit-identical, scalar fallback); the scalar path evaluates
    points one by one, results in input order.
    """
    resolved = _resolve_engine(engine, session)
    if resolved != "scalar":
        try:
            return _overlap_sweep_batch(points, cluster, scenario, timing,
                                        session)
        except ValueError:
            if resolved == "batch":
                raise
    return [
        overlap_ratio(hidden, slb, cluster, scenario=scenario,
                      timing=timing, session=session)
        for hidden, slb in points
    ]
