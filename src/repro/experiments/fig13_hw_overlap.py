"""Figure 13: hardware evolution's impact on overlapped communication.

Compute acceleration shrinks the slack that hides DP gradient
all-reduces: at 2x and 4x flop-vs-bw scaling the overlapped communication
grows to ~50-100% and ~80-210% of compute time -- at and beyond 100% it
is exposed onto the critical path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.evolution import PAPER_SCENARIOS, HardwareScenario
from repro.experiments import sweeps
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main"]

#: The figure evaluates the common SL*B = 4K column across H values.
FOCUS_SLB = 4096


def run(
    cluster: Optional[ClusterSpec] = None,
    scenarios: Sequence[HardwareScenario] = PAPER_SCENARIOS,
    slb: int = FOCUS_SLB,
    session: Optional["Session"] = None,
) -> ExperimentResult:
    """Reproduce the Figure 13 scenario sweep.

    One :func:`~repro.experiments.sweeps.overlap_sweep` evaluates the
    scenario-independent base ratios; each scenario then scales them by
    ``compute_scale / network_scale``, the same multiply
    :func:`~repro.experiments.sweeps.overlap_ratio` applies per point.
    """
    from repro.runtime.session import resolve_session

    session = resolve_session(session)
    cluster = cluster or session.cluster
    points = [(hidden, slb) for hidden in sweeps.OVERLAP_H_VALUES]
    base = sweeps.overlap_sweep(points, cluster)
    rows = []
    for hidden, ratio in zip(sweeps.OVERLAP_H_VALUES, base):
        for scenario in scenarios:
            scaled = ratio * (scenario.compute_scale
                              / scenario.network_scale)
            rows.append((
                hidden,
                slb,
                scenario.name,
                f"{scaled:.3f}",
                "hidden" if scaled < 1.0 else "EXPOSED",
            ))
    return ExperimentResult(
        experiment_id="figure-13",
        title="Overlapped comm vs compute under hardware evolution",
        headers=("H", "SL*B", "scenario", "comm/compute", "status"),
        rows=tuple(rows),
        notes=(
            "paper: 50-100% at 2x and 80-210% at 4x flop-vs-bw scaling; "
            ">= 100% means the communication is exposed",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
