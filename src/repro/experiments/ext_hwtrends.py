"""Hardware-trend extension: does flop-vs-bw keep diverging?

The paper derives its 2-4x flop-vs-bw scenarios from the 2018-2020
generation transitions (V100 -> A100, MI50 -> MI100).  This experiment
extends the derivation across every catalog generation pair: each row is
a transition's compute scaling, network scaling, their ratio -- the
empirical basis for the paper's "should past trends continue" premise --
and the serialized-communication share the paper's ~PaLM configuration
(H=16K, SL=2K, TP=64) would see if the testbed scaled by that
transition's factors.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple

from repro.core.evolution import HardwareScenario
from repro.core.hyperparams import Precision
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.hardware.specs import DEVICE_CATALOG, flop_vs_bw_ratio

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main", "GENERATION_PAIRS", "FOCUS_CONFIG"]

#: Successive generation pairs per vendor line.
GENERATION_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("V100", "A100"),
    ("A100", "H100"),
    ("MI50", "MI100"),
    ("MI100", "MI250X"),
    ("MI250X", "MI300X"),
)

#: Configuration whose serialized share each transition is evaluated on:
#: the ~PaLM line at its required TP degree (Figure 10's middle line).
FOCUS_CONFIG: Tuple[int, int, int] = (16384, 2048, 64)


def run(pairs: Sequence[Tuple[str, str]] = GENERATION_PAIRS,
        cluster: Optional[ClusterSpec] = None,
        session: Optional["Session"] = None) -> ExperimentResult:
    """Per-generation compute vs network scaling ratios."""
    from repro.experiments import sweeps

    if cluster is None:
        cluster = session.cluster if session is not None else mi210_node()
    rows = []
    for old_name, new_name in pairs:
        old, new = DEVICE_CATALOG[old_name], DEVICE_CATALOG[new_name]
        compute = new.flops(Precision.FP16) / old.flops(Precision.FP16)
        network = new.link_bw / old.link_bw
        scenario = HardwareScenario(
            name=f"{old_name} -> {new_name}",
            compute_scale=compute,
            network_scale=network,
        )
        fraction = sweeps.serialized_fraction(
            *FOCUS_CONFIG, cluster, scenario=scenario, session=session,
        )
        rows.append((
            f"{old_name} -> {new_name}",
            f"{old.year} -> {new.year}",
            f"{compute:.1f}x",
            f"{network:.1f}x",
            f"{flop_vs_bw_ratio(old, new):.1f}x",
            f"{fraction:.3f}",
        ))
    return ExperimentResult(
        experiment_id="extension-hwtrends",
        title="Compute vs network scaling across GPU generations",
        headers=("transition", "years", "compute (fp16)", "network link",
                 "flop-vs-bw", "~PaLM serialized frac"),
        rows=tuple(rows),
        notes=(
            "the paper's 2-4x flop-vs-bw band comes from the 2018-2020 "
            "transitions; the AMD line continues it (1.9-2.7x per "
            "generation)",
            "NVIDIA's A100 -> H100 lands near 1.1x -- NVLink4 scaled with "
            "compute, exactly the co-design response the paper's "
            "conclusion calls for",
            "last column: serialized share of the (H=16K, SL=2K, TP=64) "
            "configuration on the MI210 testbed scaled by each "
            "transition's compute/network factors",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
