"""Pipeline-parallelism extension (Section 6.1.2).

Pipeline parallelism splits the layer stack into ``PP`` stages on
different devices and streams micro-batches through them (GPipe-style).
It adds two costs the paper discusses:

* **P2P activation transfers** between stages, on the critical path, and
* **pipeline bubbles** -- idle slots at the schedule's head and tail,
  a fraction ``(PP - 1) / (M + PP - 1)`` of the steady-state time for
  ``M`` micro-batches.  Shrinking bubbles needs large ``M`` (hence large
  batches), which is exactly what the memory-capacity squeeze rules out --
  the paper's reason for focusing on DP + TP.

The estimator composes per-stage times from the standard executor so
pipeline results stay consistent with the rest of the library.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    validate_model_parallel,
)
from repro.hardware.cluster import ClusterSpec
from repro.models.trace import training_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, execute_trace

__all__ = ["PipelineEstimate", "estimate_pipeline"]


class PipelineEstimate(Frozen):
    """Cost estimate of one pipelined training iteration.

    Attributes:
        stage_time: One stage's compute+comm time for all micro-batches.
        p2p_time: Total critical-path activation/gradient transfer time.
        bubble_time: Idle time added by pipeline fill/drain.
    """

    __slots__ = ("stage_time", "p2p_time", "bubble_time")

    stage_time: float
    p2p_time: float
    bubble_time: float

    def __init__(self, stage_time: float, p2p_time: float,
                 bubble_time: float) -> None:
        self._set(stage_time=stage_time, p2p_time=p2p_time,
                  bubble_time=bubble_time)

    @property
    def iteration_time(self) -> float:
        return self.stage_time + self.p2p_time + self.bubble_time

    @property
    def bubble_fraction_of_iteration(self) -> float:
        if self.iteration_time == 0:
            return 0.0
        return self.bubble_time / self.iteration_time

    @property
    def comm_fraction(self) -> float:
        """P2P communication's share of the iteration (Figure 14 style)."""
        if self.iteration_time == 0:
            return 0.0
        return self.p2p_time / self.iteration_time


def estimate_pipeline(
    model: ModelConfig,
    parallel: ParallelConfig,
    cluster: ClusterSpec,
    microbatches: int = 1,
    timing: TimingModels = DEFAULT_TIMING,
) -> PipelineEstimate:
    """Estimate a GPipe-style iteration under (TP, DP, PP).

    The stage workload is the model's layer stack divided over ``PP``
    stages; each stage runs the standard TP/DP trace per micro-batch.
    Each stage boundary transfers the micro-batch activation forward and
    its gradient backward (2 transfers per boundary per micro-batch),
    assumed cross-node (stages rarely share a node at these scales).

    Raises:
        ValueError: if the layer count is not divisible by ``PP`` or
            ``microbatches`` does not divide the batch size.
    """
    validate_model_parallel(model, parallel)
    if model.num_layers % parallel.pp != 0:
        raise ValueError(
            f"num_layers ({model.num_layers}) must be divisible by "
            f"PP ({parallel.pp})"
        )
    if microbatches < 1 or model.batch % microbatches != 0:
        raise ValueError(
            f"microbatches ({microbatches}) must divide batch "
            f"({model.batch})"
        )
    micro_model = model.with_inputs(batch=model.batch // microbatches)
    stage_model = ModelConfig(
        name=f"{model.name}-stage",
        hidden=micro_model.hidden,
        seq_len=micro_model.seq_len,
        batch=micro_model.batch,
        num_layers=model.num_layers // parallel.pp,
        num_heads=micro_model.num_heads,
        ffn_dim=micro_model.ffn_dim,
        layer_type=micro_model.layer_type,
        precision=micro_model.precision,
        year=micro_model.year,
    )
    # One stage executes with the layer stack already partitioned, so its
    # trace uses the intra-stage parallelism only.
    stage_parallel = ParallelConfig(tp=parallel.tp, dp=parallel.dp,
                                    pp=1, ep=parallel.ep)
    trace = training_trace(stage_model, stage_parallel)
    per_micro = execute_trace(trace, cluster, timing).breakdown.iteration_time
    stage_time = per_micro * microbatches

    activation_bytes = (micro_model.precision.bytes * micro_model.batch
                        * micro_model.seq_len * micro_model.hidden)
    boundaries = parallel.pp - 1
    transfers = 2 * boundaries * microbatches
    p2p_time = transfers * cluster.p2p_time(activation_bytes,
                                            cross_node=True)
    bubble_time = per_micro * (parallel.pp - 1)
    return PipelineEstimate(
        stage_time=stage_time,
        p2p_time=p2p_time,
        bubble_time=bubble_time,
    )
