"""Cross-validation of the algorithmic laws against empirical timing.

The paper's algorithmic analysis (Section 3) predicts *how ratios scale*;
its empirical analysis (Section 4) measures *time*.  This module closes
the loop: it checks that the measured time ratios on the simulated
testbed actually follow the predicted closed forms --

* serialized comm/compute time ratio tracks ``TP / (H + SL)``
  (the inverse of the Amdahl's-Law-edge term, Equation 6), and
* overlapped comm/compute time ratio tracks ``1 / (SL * B)``
  (the inverse slack term, Equation 9)

-- via least-squares fits through the origin with an R^2 goodness
measure.  Hardware effects (efficiency curves, bandwidth saturation) put
real scatter around the laws, which is the point: the laws hold as trends
with quantifiable fidelity, exactly the paper's claim.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro._frozen import Frozen
from repro.core import roi
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.strategy import sweep_num_heads
from repro.hardware.cluster import ClusterSpec
from repro.models.trace import layer_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, execute_trace

__all__ = [
    "LawFit",
    "fit_through_origin",
    "edge_law_fit",
    "slack_law_fit",
]


class LawFit(Frozen):
    """A proportionality-law fit ``y ~ slope * x``.

    Attributes:
        slope: Fitted proportionality constant.
        r_squared: Goodness of fit (1.0 = the law holds exactly).
        points: The (x, y) observations the fit used.
    """

    __slots__ = ("slope", "r_squared", "points")

    slope: float
    r_squared: float
    points: Tuple[Tuple[float, float], ...]

    def __init__(self, slope: float, r_squared: float,
                 points: Tuple[Tuple[float, float], ...]) -> None:
        self._set(slope=slope, r_squared=r_squared, points=points)

    @property
    def count(self) -> int:
        return len(self.points)


def fit_through_origin(points: Sequence[Tuple[float, float]]) -> LawFit:
    """Least-squares fit of ``y = slope * x`` with R^2 against the mean.

    Raises:
        ValueError: with fewer than two points or all-zero predictors.
    """
    if len(points) < 2:
        raise ValueError("need at least two points to fit")
    sum_xx = sum(x * x for x, _ in points)
    if sum_xx == 0:
        raise ValueError("all predictor values are zero")
    sum_xy = sum(x * y for x, y in points)
    slope = sum_xy / sum_xx
    mean_y = sum(y for _, y in points) / len(points)
    ss_res = sum((y - slope * x) ** 2 for x, y in points)
    ss_tot = sum((y - mean_y) ** 2 for _, y in points)
    r_squared = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return LawFit(slope=slope, r_squared=r_squared, points=tuple(points))


def edge_law_fit(
    cluster: ClusterSpec,
    hiddens: Sequence[int] = (2048, 4096, 8192, 16384, 32768),
    seq_lens: Sequence[int] = (1024, 2048, 4096),
    tps: Sequence[int] = (8, 16, 32, 64),
    timing: TimingModels = DEFAULT_TIMING,
) -> LawFit:
    """Fit measured serialized-comm/compute time ratios to TP/(H + SL).

    One observation per (H, SL, TP) configuration: x is the algebraic
    term ``TP / (H + SL)``, y is the measured time ratio on the testbed.
    """
    points: List[Tuple[float, float]] = []
    for hidden in hiddens:
        for seq_len in seq_lens:
            for tp in tps:
                model = ModelConfig(
                    name="edge-law", hidden=hidden, seq_len=seq_len,
                    batch=1, num_heads=sweep_num_heads(hidden, tp),
                )
                trace = layer_trace(model, ParallelConfig(tp=tp, dp=1))
                breakdown = execute_trace(trace, cluster, timing).breakdown
                if breakdown.compute_time == 0:
                    continue
                x = tp / (hidden + seq_len)
                y = breakdown.serialized_comm_time / breakdown.compute_time
                points.append((x, y))
    return fit_through_origin(points)


def slack_law_fit(
    cluster: ClusterSpec,
    hiddens: Sequence[int] = (4096, 8192, 16384),
    slbs: Sequence[int] = (1024, 2048, 4096, 8192),
    tp: int = 16,
    dp: int = 16,
    timing: TimingModels = DEFAULT_TIMING,
) -> LawFit:
    """Fit measured overlapped-comm/compute ratios to 1/(SL * B).

    Small H values are excluded from the defaults because bandwidth
    saturation dominates there (the Figure 11 hardware effect the
    algorithmic law deliberately does not capture).
    """
    points: List[Tuple[float, float]] = []
    for hidden in hiddens:
        for slb in slbs:
            model = ModelConfig(
                name="slack-law", hidden=hidden, seq_len=slb, batch=1,
                num_heads=sweep_num_heads(hidden, tp),
            )
            timing_result = roi.overlap_roi_timing(
                model, ParallelConfig(tp=tp, dp=dp), cluster, timing
            )
            points.append((1.0 / slb,
                           timing_result.overlapped_pct_of_compute))
    return fit_through_origin(points)
