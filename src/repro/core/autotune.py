"""Distributed-setup search: pick (TP, DP, PP) for a model and cluster.

The paper's analysis quantifies each axis's communication cost; this
module turns it into a planner: enumerate every (TP, DP, PP)
factorization of the device budget, reject shape- or memory-infeasible
ones, estimate each survivor's training throughput on the simulated
testbed, and rank them.  It is the "how should I actually train this"
question a downstream user brings to the library.

Throughput is tokens/second across the whole cluster: a DP degree
multiplies tokens per iteration, pipeline stages add bubbles and P2P
transfers, and tensor parallelism trades memory for serialized
all-reduces -- all priced by the same machinery as the paper's figures.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware.cluster import ClusterSpec
from repro.models import memory
from repro.models.pipeline import estimate_pipeline
from repro.models.trace import training_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, execute_trace

__all__ = ["PlanCandidate", "enumerate_plans"]


class PlanCandidate(Frozen):
    """One feasible (TP, DP, PP) plan and its estimated performance.

    Attributes:
        parallel: The distributed setup.
        iteration_time: One training iteration's end-to-end time, seconds.
        tokens_per_second: Cluster-wide training throughput.
        memory_gb: Per-device memory footprint, GB.
        serialized_comm_fraction: Communication share of the iteration.
    """

    __slots__ = ("parallel", "iteration_time", "tokens_per_second",
                 "memory_gb", "serialized_comm_fraction")

    parallel: ParallelConfig
    iteration_time: float
    tokens_per_second: float
    memory_gb: float
    serialized_comm_fraction: float

    def __init__(self, parallel: ParallelConfig, iteration_time: float,
                 tokens_per_second: float, memory_gb: float,
                 serialized_comm_fraction: float) -> None:
        self._set(parallel=parallel, iteration_time=iteration_time,
                  tokens_per_second=tokens_per_second, memory_gb=memory_gb,
                  serialized_comm_fraction=serialized_comm_fraction)


def _pow2_divisors(value: int) -> List[int]:
    divisors = []
    d = 1
    while d <= value:
        if value % d == 0:
            divisors.append(d)
        d *= 2
    return divisors


def _feasible(model: ModelConfig, parallel: ParallelConfig) -> bool:
    return (model.num_heads % parallel.tp == 0
            and model.ffn_dim % parallel.tp == 0
            and model.num_layers % parallel.pp == 0)


def _evaluate(model: ModelConfig, parallel: ParallelConfig,
              cluster: ClusterSpec, microbatches: int,
              timing: TimingModels) -> Tuple[float, float]:
    """(iteration_time, serialized_fraction) for one plan."""
    if parallel.pp > 1:
        estimate = estimate_pipeline(model, parallel, cluster,
                                     microbatches=microbatches,
                                     timing=timing)
        stage_parallel = ParallelConfig(tp=parallel.tp, dp=parallel.dp)
        micro = model.with_inputs(batch=model.batch // microbatches)
        stage = ModelConfig(
            name="stage", hidden=micro.hidden, seq_len=micro.seq_len,
            batch=micro.batch, num_layers=model.num_layers // parallel.pp,
            num_heads=micro.num_heads, ffn_dim=micro.ffn_dim,
            precision=micro.precision,
        )
        breakdown = execute_trace(training_trace(stage, stage_parallel),
                                  cluster, timing).breakdown
        fraction = breakdown.serialized_comm_fraction
        return estimate.iteration_time, fraction
    breakdown = execute_trace(training_trace(model, parallel), cluster,
                              timing).breakdown
    return breakdown.iteration_time, breakdown.serialized_comm_fraction


def enumerate_plans(
    model: ModelConfig,
    world_size: int,
    cluster: ClusterSpec,
    max_tp: Optional[int] = None,
    microbatches: int = 1,
    checkpointing: bool = True,
    timing: TimingModels = DEFAULT_TIMING,
) -> List[PlanCandidate]:
    """All feasible (TP, DP, PP) plans for ``world_size`` devices, ranked
    by cluster throughput (best first).

    Power-of-two factorizations only (matching real device groups).
    Plans whose per-device footprint exceeds the device's capacity (with
    the standard headroom) are dropped.

    Raises:
        ValueError: if ``world_size`` is not a positive power of two or
            ``microbatches`` does not divide the batch.
    """
    if world_size < 1 or world_size & (world_size - 1):
        raise ValueError("world_size must be a positive power of two")
    if microbatches < 1 or model.batch % microbatches != 0:
        raise ValueError("microbatches must divide the model batch")
    candidates: List[PlanCandidate] = []
    for tp in _pow2_divisors(world_size):
        if max_tp is not None and tp > max_tp:
            continue
        for pp in _pow2_divisors(world_size // tp):
            dp = world_size // (tp * pp)
            parallel = ParallelConfig(tp=tp, dp=dp, pp=pp)
            if not _feasible(model, parallel):
                continue
            if not memory.fits_on_device(model, parallel, cluster.device,
                                         checkpointing=checkpointing):
                continue
            iteration, fraction = _evaluate(model, parallel, cluster,
                                            microbatches, timing)
            tokens = model.batch * model.seq_len * dp
            footprint = memory.memory_footprint(
                model, parallel, checkpointing=checkpointing
            )
            candidates.append(PlanCandidate(
                parallel=parallel,
                iteration_time=iteration,
                tokens_per_second=tokens / iteration,
                memory_gb=footprint.total_gb,
                serialized_comm_fraction=fraction,
            ))
    candidates.sort(key=lambda c: c.tokens_per_second, reverse=True)
    return candidates
