"""Figure 10: fraction of training time in serialized (TP) communication.

For each (H, SL) model line, the communication fraction rises with TP
degree (compute shards; activation all-reduces do not) and, at fixed TP,
falls with larger H or SL.  At the TP degree each model actually needs
(the highlighted configurations), the fraction grows as models scale --
reaching ~half of training time for the futuristic H=64K Transformer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.projection import OperatorModelSuite
from repro.experiments import sweeps
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main"]


def run(cluster: Optional[ClusterSpec] = None,
        suite: Optional[OperatorModelSuite] = None,
        session: Optional["Session"] = None,
        engine: Optional[str] = None) -> ExperimentResult:
    """Reproduce the Figure 10 sweep.

    Args:
        cluster: Testbed (defaults to the session's MI210 node).
        suite: Pass a fitted operator-model suite to produce the figure
            via projection (the paper's exact pipeline) instead of
            ground-truth simulation.
        session: Runtime session supplying the default cluster and the
            per-trace duration cache (default: the shared session).
        engine: Sweep engine override (``"auto"``/``"scalar"``/
            ``"batch"``; default: the session's engine).
    """
    from repro.runtime.session import resolve_session

    session = resolve_session(session)
    cluster = cluster or session.cluster
    grid = [(line, tp)
            for line in sweeps.SERIALIZED_LINES
            for tp in sweeps.TP_DEGREES]
    fractions = sweeps.serialized_sweep(
        [(line.hidden, line.seq_len, tp) for line, tp in grid],
        cluster, suite=suite, session=session, engine=engine,
    )
    rows = []
    for (line, tp), fraction in zip(grid, fractions):
        highlighted = (line.hidden, tp) in sweeps.HIGHLIGHTED_CONFIGS
        rows.append((
            line.label,
            line.hidden,
            line.seq_len,
            tp,
            f"{fraction:.3f}",
            "*" if highlighted else "",
        ))
    return ExperimentResult(
        experiment_id="figure-10",
        title="Fraction of serialized communication time",
        headers=("line", "H", "SL", "TP", "serialized comm fraction",
                 "required-TP"),
        rows=tuple(rows),
        notes=(
            "paper: highlighted configurations span ~20-50%, reaching "
            "~50% for the H=64K futuristic model",
            "method: " + ("operator-model projection"
                          if suite else "ground-truth simulation"),
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
