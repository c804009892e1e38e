"""Hardware-evolution scenarios: flop-vs-bw scaling (Section 4.3.6).

Between 2018 and 2020, GPU compute FLOPS scaled ~5x (NVIDIA V100 -> A100)
and ~7x (AMD MI50 -> MI100) while the corresponding network bandwidths
scaled only ~2x and ~1.7x -- compute outpaced network by roughly 2-4x per
generation.  The paper's *flop-vs-bw* scenarios apply that relative ratio
to the projected operator times: compute times shrink by the ratio while
communication times stay, shifting the bottleneck toward communication
(Figures 12 and 13).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro._frozen import Frozen
from repro.hardware.cluster import ClusterSpec
from repro.models.graph import Trace

__all__ = [
    "HardwareScenario",
    "PAPER_SCENARIOS",
    "scale_durations",
]


class HardwareScenario(Frozen):
    """One hardware-evolution point.

    Attributes:
        name: Scenario label (e.g. ``"2x flop-vs-bw"``).
        compute_scale: Factor by which peak compute throughput grows.
        network_scale: Factor by which network bandwidth grows.
    """

    __slots__ = ("name", "compute_scale", "network_scale")

    name: str
    compute_scale: float
    network_scale: float

    def __init__(self, name: str, compute_scale: float,
                 network_scale: float = 1.0) -> None:
        self._set(name=name, compute_scale=compute_scale,
                  network_scale=network_scale)
        if self.compute_scale <= 0 or self.network_scale <= 0:
            raise ValueError("scale factors must be positive")

    @property
    def flop_vs_bw(self) -> float:
        """Relative compute-over-network scaling of this scenario."""
        return self.compute_scale / self.network_scale

    def apply(self, cluster: ClusterSpec) -> ClusterSpec:
        """The cluster re-built on this scenario's hardware."""
        return cluster.scaled(compute_scale=self.compute_scale,
                              network_scale=self.network_scale)


#: The paper's canonical scenarios: today's hardware, and one generation
#: ahead at the historical 2x / 4x relative scaling ratios.
PAPER_SCENARIOS: Tuple[HardwareScenario, ...] = (
    HardwareScenario(name="1x (today)", compute_scale=1.0),
    HardwareScenario(name="2x flop-vs-bw", compute_scale=2.0),
    HardwareScenario(name="4x flop-vs-bw", compute_scale=4.0),
)


def scale_durations(
    trace: Trace,
    durations: Sequence[float],
    scenario: HardwareScenario,
) -> List[float]:
    """Apply a hardware scenario to per-op durations (the paper's method).

    Compute operators speed up by ``compute_scale``; collectives speed up
    by ``network_scale``.  This is exactly how the paper converts its
    current-hardware projections into future-hardware estimates
    (Section 4.3.6), without re-profiling anything.

    Raises:
        ValueError: on a durations/ops length mismatch.
    """
    if len(durations) != len(trace.ops):
        raise ValueError(
            f"got {len(durations)} durations for {len(trace.ops)} ops"
        )
    scaled = []
    for op, duration in zip(trace.ops, durations):
        factor = scenario.compute_scale if op.is_compute else (
            scenario.network_scale
        )
        scaled.append(duration / factor)
    return scaled
