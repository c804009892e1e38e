"""Figure 12: hardware evolution's impact on serialized communication.

Re-runs the Figure 10 highlighted configurations under the historical
flop-vs-bw scaling scenarios (compute FLOPS outpacing network bandwidth
by 2x and 4x per generation): the serialized-communication range grows
from ~20-50% to ~30-65% and ~40-75% of training time.
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


def run(
    cluster: Optional[ClusterSpec] = None,
    scenarios: Sequence[HardwareScenario] = PAPER_SCENARIOS,
    session: Optional["Session"] = None,
) -> ExperimentResult:
    """Reproduce the Figure 12 scenario sweep."""
    from repro.runtime.session import resolve_session

    session = resolve_session(session)
    cluster = cluster or session.cluster
    grid = [
        (line, tp, scenario)
        for line in sweeps.SERIALIZED_LINES
        for hidden, tp in sweeps.HIGHLIGHTED_CONFIGS
        if hidden == line.hidden
        for scenario in scenarios
    ]
    rows = []
    for line, tp, scenario in grid:
        fraction = sweeps.serialized_fraction(
            line.hidden, line.seq_len, tp, cluster, scenario=scenario,
            session=session,
        )
        rows.append((
            line.label,
            tp,
            scenario.name,
            f"{scenario.flop_vs_bw:g}x",
            f"{fraction:.3f}",
        ))
    return ExperimentResult(
        experiment_id="figure-12",
        title="Serialized comm fraction under hardware evolution",
        headers=("line", "TP", "scenario", "flop-vs-bw",
                 "serialized comm fraction"),
        rows=tuple(rows),
        notes=(
            "paper: 20-50% (1x) -> 30-65% (2x) -> 40-75% (4x) across the "
            "highlighted configurations",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
