"""Section 5 ablation: communication-acceleration techniques.

Models the paper's discussed remedies on the Figure 14 case-study
configuration:

* **network-scaling** -- scale network bandwidth commensurately with
  compute (the paper's headline recommendation);
* **in-network reduction (PIN)** -- switch-based all-reduce halves
  per-device traffic (an effective 2x bandwidth);
* **offload** -- a communication co-processor removes compute/comm
  interference from overlapped collectives.
"""

from __future__ import annotations

from typing import Optional

from repro.core import casestudy
from repro.core.casestudy import CaseStudyScenario
from repro.core.evolution import HardwareScenario
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.hardware.collectives import AllReduceAlgorithm

__all__ = ["run", "main"]


def run(base_cluster: Optional[ClusterSpec] = None) -> ExperimentResult:
    """Critical-path communication under each remediation technique."""
    base = base_cluster or mi210_node()
    fourx = HardwareScenario(name="4x flop-vs-bw", compute_scale=4.0)
    balanced = HardwareScenario(name="4x compute + 4x network",
                                compute_scale=4.0, network_scale=4.0)
    scenarios = [
        CaseStudyScenario(name="baseline (4x flop-vs-bw, interference)",
                          hardware=fourx, overlapped_comm_slowdown=8.0),
        CaseStudyScenario(name="technique: offload (no interference)",
                          hardware=fourx),
        CaseStudyScenario(name="technique: network scales with compute",
                          hardware=balanced, overlapped_comm_slowdown=8.0),
    ]
    rows = []
    for scenario in scenarios:
        result = casestudy.run_case_study(scenarios=[scenario],
                                          base_cluster=base)[0]
        rows.append((
            scenario.name,
            f"{result.serialized_fraction:.3f}",
            f"{result.critical_comm_fraction:.3f}",
        ))
    # PIN: switch-based all-reduce (2x effective bandwidth for AR traffic).
    pin_cluster = base.replace(
        allreduce_algorithm=AllReduceAlgorithm.IN_NETWORK)
    pin = casestudy.run_case_study(
        scenarios=[CaseStudyScenario(
            name="technique: in-network reduction (PIN)", hardware=fourx,
            overlapped_comm_slowdown=8.0,
        )],
        base_cluster=pin_cluster,
    )[0]
    rows.append((
        "technique: in-network reduction (PIN)",
        f"{pin.serialized_fraction:.3f}",
        f"{pin.critical_comm_fraction:.3f}",
    ))
    return ExperimentResult(
        experiment_id="ablation-techniques",
        title="Communication-acceleration techniques (Section 5)",
        headers=("configuration", "serialized frac",
                 "critical-path comm frac"),
        rows=tuple(rows),
        notes=(
            "paper: PIN provides ~2x effective bandwidth; offload removes "
            "interference; network scaling commensurate with compute is "
            "the baseline requirement",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
