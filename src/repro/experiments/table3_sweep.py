"""Table 3: the studied hyperparameter and distributed-setup space."""

from __future__ import annotations

from repro.core.strategy import TABLE3_SWEEP
from repro.experiments.base import ExperimentResult

__all__ = ["run", "main"]


def run() -> ExperimentResult:
    """Reproduce Table 3 (the sweep definition) with its config counts."""
    sweep = TABLE3_SWEEP
    serialized_configs = sum(1 for _ in sweep.configs(batch=1))
    rows = (
        ("H", ", ".join(f"{h // 1024}K" for h in sweep.hidden)),
        ("B", ", ".join(str(b) for b in sweep.batch)),
        ("SL", ", ".join(f"{s // 1024}K" for s in sweep.seq_len)),
        ("TP degree", ", ".join(str(t) for t in sweep.tp)),
        ("DP degree", "any (results are DP-degree agnostic)"),
        ("raw configurations", str(sweep.size())),
        ("serialized-comm sweep (B=1)", str(serialized_configs)),
    )
    return ExperimentResult(
        experiment_id="table-3",
        title="Parameters and setup of models studied",
        headers=("parameter / setup", "values"),
        rows=rows,
        notes=(
            "paper projects ~196 serialized-communication configurations "
            "from a single profiled baseline",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
