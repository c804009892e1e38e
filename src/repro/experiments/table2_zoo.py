"""Table 2: hyperparameters of published NLP Transformer models."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core import scaling
from repro.core.hyperparams import ParallelConfig
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.models import zoo

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main"]


def _feasible_tp(model) -> int:
    """Required TP degree clamped to the model's sharding constraints.

    Some zoo models have head counts that are not powers of two (GPT-2
    has 25); halve the estimator's degree until it divides both the head
    count and the FC dimension.
    """
    tp = min(scaling.required_tp(model, max_tp=256), model.num_heads)
    while tp > 1 and (model.num_heads % tp or model.ffn_dim % tp):
        tp //= 2
    return max(1, tp)


def run(cluster: Optional[ClusterSpec] = None,
        session: Optional["Session"] = None) -> ExperimentResult:
    """Reproduce Table 2 with a computed-vs-reported size cross-check.

    Extends the paper's table with each model's feasible TP degree on
    the MI210 testbed and the serialized-communication share it would
    see there, one scalar execution per model (through
    :meth:`~repro.runtime.session.Session.execute` when a session is
    given).
    """
    from repro.models.trace import layer_trace
    from repro.sim.executor import execute_trace

    if cluster is None:
        cluster = session.cluster if session is not None else mi210_node()
    execute = session.execute if session is not None else execute_trace
    models = [zoo.MODEL_ZOO[entry["model"]] for entry in zoo.zoo_table()]
    pairs = [(model, ParallelConfig(tp=_feasible_tp(model), dp=1))
             for model in models]
    fractions = [
        execute(layer_trace(model, parallel),
                cluster).breakdown.serialized_comm_fraction
        for model, parallel in pairs
    ]
    rows = []
    for entry, (model, parallel), fraction in zip(zoo.zoo_table(), pairs,
                                                  fractions):
        rows.append((
            entry["model"],
            entry["year"],
            entry["layers"],
            entry["hidden"],
            entry["heads"],
            entry["seq_len"],
            entry["ffn_dim"],
            entry["type"],
            f"{entry['reported_params_b']:.2f}",
            f"{entry['computed_params_b']:.2f}",
            parallel.tp,
            f"{fraction:.3f}",
        ))
    return ExperimentResult(
        experiment_id="table-2",
        title="NLP model hyperparameters (reported vs computed sizes, B)",
        headers=("model", "year", "layers", "H", "heads", "SL", "FC dim",
                 "type", "size(B) reported", "size(B) computed",
                 "feasible TP", "serialized frac"),
        rows=tuple(rows),
        notes=(
            "computed sizes count the layer stack only; T5/PaLM use "
            "non-standard blocks, so analyses use reported sizes",
            "feasible TP: the Figure 9(b) required-TP estimate halved "
            "until it divides the head count and FC dimension; "
            "serialized frac: that configuration's share on the MI210 "
            "testbed",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
