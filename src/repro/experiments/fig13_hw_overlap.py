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
    engine: Optional[str] = None,
) -> ExperimentResult:
    """Reproduce the Figure 13 scenario sweep.

    One :func:`~repro.experiments.sweeps.overlap_sweep` per scenario;
    the scenario scaling is applied to the shared scenario-independent
    base ratios, so with a session the whole figure reuses one batched
    ROI evaluation.
    """
    from repro.runtime.session import resolve_session

    session = resolve_session(session)
    cluster = cluster or session.cluster
    points = [(hidden, slb) for hidden in sweeps.OVERLAP_H_VALUES]
    by_scenario = {
        scenario: sweeps.overlap_sweep(
            points, cluster, scenario=scenario, session=session,
            engine=engine,
        )
        for scenario in scenarios
    }
    grid = [(hidden, scenario)
            for hidden in sweeps.OVERLAP_H_VALUES
            for scenario in scenarios]
    ratios = [
        by_scenario[scenario][h_index]
        for h_index, hidden in enumerate(sweeps.OVERLAP_H_VALUES)
        for scenario in scenarios
    ]
    rows = []
    for (hidden, scenario), ratio in zip(grid, ratios):
        rows.append((
            hidden,
            slb,
            scenario.name,
            f"{ratio:.3f}",
            "hidden" if ratio < 1.0 else "EXPOSED",
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
