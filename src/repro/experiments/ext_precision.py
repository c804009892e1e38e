"""Section 6.2 ablation: number formats and Comp-vs-Comm.

Narrower formats scale peak compute more than linearly (MI210 FP16 is 4x
its FP32 rate) while communicated bytes shrink only linearly -- so
reduced precision *raises* communication's share of training time, acting
like an extra flop-vs-bw scaling.  This ablation runs the Figure 10
highlighted configurations across formats.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.hyperparams import ParallelConfig, Precision
from repro.experiments import sweeps
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.models.trace import layer_trace
from repro.sim.executor import execute_trace

__all__ = ["run", "main"]

#: FP8 rates exist on newer parts; model a 2x-over-FP16 rate on the
#: testbed device for the ablation.
_FP8_OVER_FP16 = 2.0


def _cluster_with_fp8(cluster: ClusterSpec) -> ClusterSpec:
    device = cluster.device
    if Precision.FP8 in device.peak_flops:
        return cluster
    flops = dict(device.peak_flops)
    flops[Precision.FP8] = flops[Precision.FP16] * _FP8_OVER_FP16
    return cluster.replace(device=device.replace(peak_flops=flops))


def run(
    cluster: Optional[ClusterSpec] = None,
    precisions: Sequence[Precision] = (Precision.FP32, Precision.FP16,
                                       Precision.FP8),
) -> ExperimentResult:
    """Serialized-communication fraction per number format."""
    cluster = _cluster_with_fp8(cluster or mi210_node())
    rows = []
    for line in sweeps.SERIALIZED_LINES:
        for hidden, tp in sweeps.HIGHLIGHTED_CONFIGS:
            if hidden != line.hidden:
                continue
            for precision in precisions:
                model = sweeps.serialized_model(
                    line.hidden, line.seq_len, tp).replace(precision=precision)
                trace = layer_trace(model, ParallelConfig(tp=tp, dp=1))
                breakdown = execute_trace(trace, cluster).breakdown
                rows.append((
                    line.label,
                    tp,
                    precision.value,
                    f"{breakdown.serialized_comm_fraction:.3f}",
                ))
    return ExperimentResult(
        experiment_id="ablation-precision",
        title="Number formats vs serialized communication (Section 6.2)",
        headers=("line", "TP", "precision", "serialized comm fraction"),
        rows=tuple(rows),
        notes=(
            "paper: compute scales super-linearly with narrower formats "
            "while bytes scale linearly, so reduced precision increases "
            "communication's share",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
