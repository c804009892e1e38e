"""Figure 11: overlapped (DP) communication as a percentage of compute.

The ROI metric: weight-gradient all-reduce time over backprop GEMM time,
per layer, at the paper's fixed TP of 16.  The percentage falls as
``SL * B`` grows (more compute slack) and rises at small H, where small
gradient messages underutilize network bandwidth -- a hardware effect the
algorithmic analysis alone does not capture (Section 4.3.5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.experiments import sweeps
from repro.experiments.base import ExperimentResult
from repro.hardware.cluster import ClusterSpec

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["run", "main"]


def run(cluster: Optional[ClusterSpec] = None,
        session: Optional["Session"] = None,
        engine: Optional[str] = None) -> ExperimentResult:
    """Reproduce the Figure 11 sweep."""
    from repro.runtime.session import resolve_session

    session = resolve_session(session)
    cluster = cluster or session.cluster
    points = [(hidden, slb)
              for hidden in sweeps.OVERLAP_H_VALUES
              for slb in sweeps.OVERLAP_SLB_VALUES]
    ratios = sweeps.overlap_sweep(points, cluster, session=session,
                                  engine=engine)
    rows = []
    for (hidden, slb), ratio in zip(points, ratios):
        rows.append((
            hidden,
            slb,
            f"{ratio:.3f}",
            "yes" if ratio < 1.0 else "no (exposed)",
        ))
    return ExperimentResult(
        experiment_id="figure-11",
        title="Overlapped comm as a fraction of compute time (TP=16)",
        headers=("H", "SL*B", "comm/compute", "hidable"),
        rows=tuple(rows),
        notes=(
            "paper: 17-140% across the sweep; 20-55% at the common "
            "SL*B = 4K; higher at smaller H",
        ),
    )


def main() -> None:
    print(run().to_text())


if __name__ == "__main__":
    main()
