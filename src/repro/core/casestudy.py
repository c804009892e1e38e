"""End-to-end Comp-vs-Comm case study (Section 4.3.7, Figure 14).

Combines serialized (TP) and overlapped (DP) communication for a large
futuristic Transformer -- the paper's setup is H=64K, B=1, SL=4K,
TP degree 128, with 4x flop-vs-bw hardware scaling -- under three
scenarios:

1. today's hardware, intra-node-bandwidth communication;
2. 4x flop-vs-bw evolved hardware (the paper's headline: 47% of time in
   serialized communication, 9% in overlapped communication that is still
   completely hidden);
3. evolved hardware *plus* inter-node links and compute/communication
   interference (~8x slower overlapped communication), which exposes
   previously hidden DP communication onto the critical path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.core.evolution import HardwareScenario, PAPER_SCENARIOS
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware.cluster import (
    DEFAULT_INTER_NODE_SLOWDOWN,
    ClusterSpec,
    mi210_node,
)
from repro.models.trace import training_trace
from repro.sim.breakdown import Breakdown
from repro.sim.executor import DEFAULT_TIMING, TimingModels, execute_trace

__all__ = [
    "CASE_STUDY_MODEL",
    "CASE_STUDY_PARALLEL",
    "CaseStudyScenario",
    "CaseStudyRow",
    "default_scenarios",
    "run_case_study",
]

#: The paper's futuristic Transformer (Figure 14 caption).  Eight layers
#: are enough to expose the per-layer overlap pipeline (each layer's
#: gradient all-reduce hides under earlier layers' backprop); fractions
#: are layer-count invariant beyond that.
CASE_STUDY_MODEL = ModelConfig(
    name="futuristic-64K",
    hidden=65536,
    seq_len=4096,
    batch=1,
    num_layers=8,
    num_heads=512,
)

#: TP degree 128 (Figure 14 caption); DP of 8 (fractions are DP-degree
#: agnostic, Section 4.3.2).
CASE_STUDY_PARALLEL = ParallelConfig(tp=128, dp=8)


class CaseStudyScenario(Frozen):
    """One Figure 14 scenario: a hardware scaling + interference setting."""

    __slots__ = ("name", "hardware", "overlapped_comm_slowdown")

    name: str
    hardware: HardwareScenario
    overlapped_comm_slowdown: float

    def __init__(self, name: str, hardware: HardwareScenario,
                 overlapped_comm_slowdown: float = 1.0) -> None:
        self._set(name=name, hardware=hardware,
                  overlapped_comm_slowdown=overlapped_comm_slowdown)

    def build_cluster(self, base: Optional[ClusterSpec] = None) -> ClusterSpec:
        cluster = (base or mi210_node()).with_interference(
            self.overlapped_comm_slowdown
        )
        return self.hardware.apply(cluster)


def default_scenarios() -> Tuple[CaseStudyScenario, ...]:
    """The paper's three Figure 14 scenarios."""
    today, _, fourx = PAPER_SCENARIOS
    return (
        CaseStudyScenario(name="today, intra-node", hardware=today),
        CaseStudyScenario(name="4x flop-vs-bw, intra-node", hardware=fourx),
        CaseStudyScenario(
            name="4x flop-vs-bw, inter-node + interference",
            hardware=fourx,
            overlapped_comm_slowdown=DEFAULT_INTER_NODE_SLOWDOWN,
        ),
    )


class CaseStudyRow(Frozen):
    """One scenario's outcome.

    Attributes:
        scenario: Scenario label.
        breakdown: Full time breakdown of the iteration.
    """

    __slots__ = ("scenario", "breakdown")

    scenario: str
    breakdown: Breakdown

    def __init__(self, scenario: str, breakdown: Breakdown) -> None:
        self._set(scenario=scenario, breakdown=breakdown)

    @property
    def serialized_fraction(self) -> float:
        return self.breakdown.serialized_comm_fraction

    @property
    def overlapped_fraction(self) -> float:
        """Overlapped communication as a fraction of iteration time."""
        if self.breakdown.iteration_time == 0:
            return 0.0
        return (self.breakdown.overlapped_comm_time
                / self.breakdown.iteration_time)

    @property
    def critical_comm_fraction(self) -> float:
        return self.breakdown.critical_comm_fraction


def run_case_study(
    model: ModelConfig = CASE_STUDY_MODEL,
    parallel: ParallelConfig = CASE_STUDY_PARALLEL,
    scenarios: Optional[Sequence[CaseStudyScenario]] = None,
    base_cluster: Optional[ClusterSpec] = None,
    timing: TimingModels = DEFAULT_TIMING,
) -> List[CaseStudyRow]:
    """Run the combined TP+DP case study across scenarios (Figure 14)."""
    scenarios = list(scenarios) if scenarios is not None else (
        list(default_scenarios())
    )
    trace = training_trace(model, parallel)
    rows = []
    for scenario in scenarios:
        cluster = scenario.build_cluster(base_cluster)
        result = execute_trace(trace, cluster, timing)
        rows.append(CaseStudyRow(scenario=scenario.name,
                                 breakdown=result.breakdown))
    return rows
