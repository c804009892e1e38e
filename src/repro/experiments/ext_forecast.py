"""Model-evolution forecast extension (Section 4.2.1, Step 1).

Fits the zoo's hyperparameter growth trends, synthesizes future
Transformers for the next five years, and runs the Comp-vs-Comm analysis
on each: required TP degree (Figure 9(b) estimator) and serialized
communication share on today's testbed and on 4x flop-vs-bw hardware.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core import forecast, scaling
from repro.core.evolution import PAPER_SCENARIOS
from repro.core.hyperparams import ParallelConfig
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec, mi210_node

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main"]


def run(cluster: Optional[ClusterSpec] = None,
        start_year: int = 2023, end_year: int = 2027,
        session: Optional["Session"] = None) -> ExperimentResult:
    """Analyze forecasted future Transformers year by year.

    Each yearly configuration runs once on today's cluster and once on
    the 4x-scaled one, as scalar executions (through
    :meth:`~repro.runtime.session.Session.execute` when a session is
    given).
    """
    from repro.models.trace import layer_trace
    from repro.sim.executor import execute_trace

    if cluster is None:
        cluster = session.cluster if session is not None else mi210_node()
    execute = session.execute if session is not None else execute_trace
    fourx = PAPER_SCENARIOS[2].apply(cluster)
    models = list(forecast.forecast_series(start_year, end_year))
    pairs = []
    for model in models:
        tp = min(scaling.required_tp(model, max_tp=256), model.num_heads)
        pairs.append((model, ParallelConfig(tp=tp, dp=1)))

    def fractions(target: ClusterSpec) -> List[float]:
        return [
            execute(layer_trace(model, parallel),
                    target).breakdown.serialized_comm_fraction
            for model, parallel in pairs
        ]

    today_fractions = fractions(cluster)
    future_fractions = fractions(fourx)
    rows = []
    for (model, parallel), today, future in zip(pairs, today_fractions,
                                                future_fractions):
        rows.append((
            model.year,
            model.hidden,
            model.seq_len,
            model.num_layers,
            f"{model.total_params() / 1e9:.0f}",
            parallel.tp,
            f"{today:.3f}",
            f"{future:.3f}",
        ))
    hidden_rate = forecast.hidden_trend().annual_rate
    return ExperimentResult(
        experiment_id="extension-forecast",
        title="Forecasted future Transformers and their comm shares",
        headers=("year", "H", "SL", "layers", "params (B)", "required TP",
                 "serialized frac (1x)", "serialized frac (4x)"),
        rows=tuple(rows),
        notes=(
            f"hidden dimension grows {hidden_rate:.1f}x/year in the zoo "
            "fit; forecasts saturate at the paper's studied envelope "
            "(H=64K, SL=8K)",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
