"""Parallelism-planning extension: best (TP, DP, PP) per model.

Applies the library's cost models as a planner: for each large zoo model
and a fixed device budget, rank every feasible (TP, DP, PP)
factorization by training throughput and report the winner against the
naive all-TP and max-DP extremes.
"""

from __future__ import annotations

from typing import Optional

from repro.core import autotune
from repro.core.hyperparams import ModelConfig
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.models.zoo import MODEL_ZOO

__all__ = ["run", "main"]

#: A futuristic Transformer with pipeline-friendly geometry (H=32K,
#: 128 layers) for the larger device budget.
_FUTURISTIC = ModelConfig(name="futuristic-32K", hidden=32768,
                          seq_len=4096, batch=8, num_layers=128,
                          num_heads=256)

#: (model, device budget, micro-batches) for the planning study.
_STUDY = (
    (MODEL_ZOO["GPT-3"], 256, 8),
    (_FUTURISTIC, 1024, 8),
)


def run(cluster: Optional[ClusterSpec] = None) -> ExperimentResult:
    """Plan large models on fixed device budgets."""
    cluster = cluster or mi210_node()
    rows = []
    for base_model, world, microbatches in _STUDY:
        name = base_model.name
        model = base_model.replace(batch=microbatches)
        plans = autotune.enumerate_plans(model, world, cluster,
                                         microbatches=microbatches)
        if not plans:
            rows.append((name, world, "-", "-", "-", "-", "infeasible"))
            continue
        best = plans[0]
        worst = plans[-1]
        rows.append((
            name,
            world,
            f"TP={best.parallel.tp} DP={best.parallel.dp} "
            f"PP={best.parallel.pp}",
            f"{best.tokens_per_second:.0f}",
            f"{best.memory_gb:.1f}",
            f"{best.serialized_comm_fraction:.3f}",
            f"{best.tokens_per_second / worst.tokens_per_second:.1f}x "
            "over worst feasible",
        ))
    return ExperimentResult(
        experiment_id="extension-autotune",
        title="Best (TP, DP, PP) plans from the cost models",
        headers=("model", "devices", "best plan", "tokens/s",
                 "memory (GB)", "serialized frac", "margin"),
        rows=tuple(rows),
        notes=(
            "the planner prices each axis with the same machinery as the "
            "paper's figures: TP buys memory at serialized-comm cost, PP "
            "at bubble cost, DP multiplies throughput when gradients hide",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
