"""Design-space extension: streamed feasibility over a 10^5+ grid.

Table 2 fixes nine named models and Table 3 sweeps a few hundred
hyperparameter points; the question both are sampling -- *which corner
of the (H, SL, B, TP, DP) space stays compute-bound as hardware
evolves?* -- really lives on a grid far too large to materialize.  This
experiment walks the full product (~33.6k raw points per hardware
scenario, >10^5 across the paper's 1x/2x/4x flop-vs-bw scenarios)
through the streaming sweep pipeline: lazy chunked grids
(:mod:`repro.core.gridplan`), process-parallel batch evaluation
(:mod:`repro.runtime.megasweep`), and online reducers
(:mod:`repro.core.reducers`), so the whole study costs kilobytes of
memory and one table row per scenario.

Feasibility mirrors Table 2's footprint rule (device memory with
checkpointed activations, 90% headroom) plus a world-size cap; the
non-power-of-two hidden sizes exercise the head/FFN divisibility
filter the scalar sweeps enforce per config.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.core.evolution import PAPER_SCENARIOS, HardwareScenario
from repro.core.gridplan import FitsDeviceMemory, GridSpec, MaxWorldSize
from repro.core.reducers import Histogram, ParetoFront, TopK
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main", "DESIGN_AXES", "MAX_WORLD_SIZE", "design_spec"]

#: The swept axes: 14 x 6 x 4 x 10 x 10 = 33,600 raw points per
#: scenario.  Non-power-of-two hidden sizes (1536, 3072, 6144, ...)
#: only divide into heads for some TP degrees, exercising the lazy
#: grid's divisibility filter.
DESIGN_AXES = {
    "hidden": (1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
               20480, 24576, 32768, 49152, 65536),
    "seq_len": (512, 1024, 2048, 4096, 8192, 16384),
    "batch": (1, 2, 4, 16),
    "tp": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    "dp": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
}

#: Largest world size considered (TP * DP devices).
MAX_WORLD_SIZE = 4096


def design_spec(cluster: ClusterSpec) -> GridSpec:
    """The lazy design-space grid, constrained to the cluster's device."""
    return GridSpec(
        constraints=(
            MaxWorldSize(MAX_WORLD_SIZE),
            FitsDeviceMemory.from_device(cluster.device),
        ),
        **DESIGN_AXES,
    )


def _format_config(config: Sequence[int]) -> str:
    hidden, seq_len, batch, tp, dp = config
    return f"H={hidden} SL={seq_len} B={batch} TP={tp} DP={dp}"


def run(scenarios: Sequence[HardwareScenario] = PAPER_SCENARIOS,
        cluster: Optional[ClusterSpec] = None,
        session: Optional["Session"] = None) -> ExperimentResult:
    """Streamed feasibility/bottleneck table, one row per scenario.

    Each scenario's row reports the raw and feasible point counts, the
    serialized-communication-fraction median/p90 over every feasible
    point, the fastest feasible configuration, the size of the
    (compute time, exposed comm) Pareto frontier, and the fraction of
    feasible points the selection sweep evaluated exactly.  The
    selection queries (top-1 + Pareto) run through the bound-and-prune
    scheduler -- bit-identical to exhaustive evaluation, but chunks the
    analytical bounds prove irrelevant are never engine-evaluated.  The
    histogram needs every feasible point, so it streams in a separate
    exhaustive sweep.  Both use the ground-truth batch engine on the
    scenario-scaled cluster and store no chunk records: the
    experiment result is the one cache entry.
    """
    from repro.runtime.session import resolve_session

    session = resolve_session(session)
    base = cluster if cluster is not None else session.cluster
    def selection() -> Tuple[TopK, ParetoFront]:
        return (TopK("iteration_time", k=1, largest=False), ParetoFront())

    rows = []
    total_raw = 0
    total_evaluated = 0
    for scenario in scenarios:
        target = scenario.apply(base)
        spec = design_spec(target)
        selected = session.stream_sweep(spec, selection(), cluster=target,
                                        prune=True, use_cache=False)
        histogram = Histogram("serialized_comm_fraction", bins=64)
        full = session.stream_sweep(spec, (histogram,), cluster=target,
                                    use_cache=False)
        total_raw += full.raw_points
        total_evaluated += full.evaluated_points
        prune_meta = selected.meta["prune"]
        hist = full.reductions[histogram.label]
        best = selected.reductions["top1-min:iteration_time"]["entries"][0]
        pareto = selected.reductions["pareto:compute_time/"
                                     "exposed_comm_time"]["entries"]
        rows.append((
            scenario.name,
            f"{full.raw_points:,}",
            f"{full.evaluated_points:,}",
            f"{full.evaluated_points / full.raw_points:.1%}",
            f"{hist['p50']:.3f}",
            f"{hist['p90']:.3f}",
            f"{_format_config(best['config'])} "
            f"({best['value'] * 1e3:.3f} ms)",
            f"{len(pareto)}",
            f"{prune_meta['exact_point_fraction']:.1%}"
            if prune_meta["enabled"] else "n/a",
        ))
    return ExperimentResult(
        experiment_id="extension-designspace",
        title="Design-space feasibility under hardware evolution "
              "(streamed sweep)",
        headers=("scenario", "raw points", "feasible", "feasible %",
                 "serialized p50", "serialized p90", "fastest feasible",
                 "pareto size", "exact-evaluated"),
        rows=tuple(rows),
        notes=(
            f"grid: H x SL x B x TP x DP = "
            f"{' x '.join(str(len(v)) for v in DESIGN_AXES.values())} "
            f"= {total_raw // max(1, len(scenarios)):,} raw points per "
            f"scenario ({total_raw:,} across scenarios)",
            "feasible = fits device memory with checkpointed "
            "activations at 90% headroom, TP*DP <= "
            f"{MAX_WORLD_SIZE:,} devices, and heads/FFN divide by TP",
            "serialized p50/p90: streaming-histogram quantiles of the "
            "serialized-communication fraction over feasible points -- "
            "the paper's Figure 12 trend, here over the whole space: "
            "the distribution shifts right as compute outpaces the "
            "network",
            "evaluated chunk-by-chunk with bounded memory via "
            "repro.runtime.megasweep.stream_sweep; bit-identical to a "
            "one-shot batch_execute of the full grid "
            "(see `python -m repro check`)",
            "exact-evaluated: fraction of feasible points the top-1 + "
            "Pareto selection sweep ran through the exact engine; the "
            "rest were pruned by the admissible analytical bounds of "
            "repro.core.bounds with zero result drift (checker layer 5)",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
