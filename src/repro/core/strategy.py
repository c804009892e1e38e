"""Empirical-strategy orchestration: sweeps and profiling-cost accounting.

Implements the paper's Table 3 configuration space and the discipline of
Section 4.2: the algorithmic analysis picks *which* hyperparameters to
sweep (``SL * B`` jointly rather than separately; TP for serialized
communication), and the operator-level models let the full sweep be
*projected* from one profiled baseline instead of executed -- the paper's
headline 2100x profiling-cost reduction (Section 4.3.8).
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional, Tuple

from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.projection import OperatorModelSuite
from repro.hardware.cluster import ClusterSpec
from repro.models import memory
from repro.models.trace import layer_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels
from repro.sim.profiler import profile_trace

__all__ = [
    "SweepSpec",
    "TABLE3_SWEEP",
    "sweep_num_heads",
    "ProfilingCostReport",
    "profiling_cost_report",
]


class SweepSpec(Frozen):
    """A hyperparameter sweep space (Table 3).

    Attributes:
        hidden: Hidden-dimension values.
        batch: Batch-size values.
        seq_len: Sequence-length values.
        tp: Tensor-parallel degrees.
    """

    __slots__ = ("hidden", "batch", "seq_len", "tp")

    hidden: Tuple[int, ...]
    batch: Tuple[int, ...]
    seq_len: Tuple[int, ...]
    tp: Tuple[int, ...]

    def __init__(self, hidden: Tuple[int, ...], batch: Tuple[int, ...],
                 seq_len: Tuple[int, ...], tp: Tuple[int, ...]) -> None:
        self._set(hidden=hidden, batch=batch, seq_len=seq_len, tp=tp)
        for name in ("hidden", "batch", "seq_len", "tp"):
            values = getattr(self, name)
            if not values:
                raise ValueError(f"{name} sweep must not be empty")
            if any(v <= 0 for v in values):
                raise ValueError(f"{name} values must be positive")

    def size(self) -> int:
        """Number of raw configurations in the cross product."""
        return (len(self.hidden) * len(self.batch) * len(self.seq_len)
                * len(self.tp))

    def configs(self, batch: Optional[int] = None
                ) -> Iterator[Tuple[ModelConfig, ParallelConfig]]:
        """Iterate (model, parallelism) pairs of the sweep.

        Args:
            batch: Restrict to one batch size (the serialized-communication
                sweep factors out B, Section 4.2.1).
        """
        batches = (batch,) if batch is not None else self.batch
        for h, b, sl, tp in itertools.product(self.hidden, batches,
                                              self.seq_len, self.tp):
            model = ModelConfig(
                name=f"sweep-H{h}-B{b}-SL{sl}",
                hidden=h,
                seq_len=sl,
                batch=b,
                num_heads=sweep_num_heads(h, tp),
            )
            yield model, ParallelConfig(tp=tp, dp=1)


def sweep_num_heads(hidden: int, tp: int) -> int:
    """Attention-head count for a sweep configuration.

    Aims for the conventional head size of 128 while staying divisible by
    both the hidden dimension and the TP degree (all sweep values are
    powers of two, so ``max(tp, hidden/128)`` satisfies both).
    """
    return max(tp, max(1, hidden // 128))


#: The paper's Table 3 space: H of 1K-64K, B in {1, 4}, SL of 1K-8K,
#: TP degrees 4-256.  The serialized-communication study uses B=1,
#: giving the ~196 projected configurations of Section 4.3.8.
TABLE3_SWEEP = SweepSpec(
    hidden=(1024, 2048, 4096, 8192, 16384, 32768, 65536),
    batch=(1, 4),
    seq_len=(1024, 2048, 4096, 8192),
    tp=(4, 8, 16, 32, 64, 128, 256),
)


class ProfilingCostReport(Frozen):
    """Profiling-cost comparison: exhaustive execution vs our strategy.

    All costs are simulated-testbed wall seconds per profiled training
    iteration (layer-normalized).

    Attributes:
        exhaustive_cost: Total cost of executing every feasible sweep
            configuration on the testbed.
        strategy_cost: Cost of our strategy -- one profiled baseline
            iteration plus collective microbenchmarks.
        configs_total: Raw sweep configurations considered.
        configs_feasible: Configurations that fit in device memory (the
            only ones exhaustive profiling could even run).
        configs_projected: Configurations covered by projection (all of
            them -- projection has no memory-capacity constraint).
    """

    __slots__ = ("exhaustive_cost", "strategy_cost", "configs_total",
                 "configs_feasible", "configs_projected")

    exhaustive_cost: float
    strategy_cost: float
    configs_total: int
    configs_feasible: int
    configs_projected: int

    def __init__(self, exhaustive_cost: float, strategy_cost: float,
                 configs_total: int, configs_feasible: int,
                 configs_projected: int) -> None:
        self._set(exhaustive_cost=exhaustive_cost, strategy_cost=strategy_cost,
                  configs_total=configs_total,
                  configs_feasible=configs_feasible,
                  configs_projected=configs_projected)

    @property
    def speedup(self) -> float:
        """Profiling-cost reduction factor (the paper reports ~2100x)."""
        if self.strategy_cost == 0:
            return float("inf")
        return self.exhaustive_cost / self.strategy_cost


def profiling_cost_report(
    suite: OperatorModelSuite,
    cluster: ClusterSpec,
    sweep: SweepSpec = TABLE3_SWEEP,
    timing: TimingModels = DEFAULT_TIMING,
    profile_iterations: int = 10,
) -> ProfilingCostReport:
    """Compare exhaustive profiling cost against the operator-model path.

    Exhaustive profiling executes every *memory-feasible* configuration
    (models that do not fit a device cannot be profiled at all -- the
    paper's "some very expensive" configurations) for
    ``profile_iterations`` iterations each; our strategy profiles the one
    baseline the suite was fitted from.

    Feasibility and cost are evaluated per layer: per-layer cost times a
    common layer count cancels in the ratio.
    """
    if profile_iterations < 1:
        raise ValueError("profile_iterations must be >= 1")
    exhaustive = 0.0
    total = 0
    feasible = 0
    for model, parallel in sweep.configs(batch=1):
        total += 1
        if not memory.fits_on_device(model, parallel, cluster.device,
                                     checkpointing=True):
            continue
        feasible += 1
        trace = layer_trace(model, parallel)
        exhaustive += profile_trace(trace, cluster, timing).total_time
    return ProfilingCostReport(
        exhaustive_cost=exhaustive * profile_iterations,
        strategy_cost=suite.baseline_cost * profile_iterations,
        configs_total=total,
        configs_feasible=feasible,
        configs_projected=total,
    )
