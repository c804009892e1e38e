"""ZeRO-style data parallelism (Section 6.1.3 context, Rajbhandari et al.).

ZeRO trades the plain-DP gradient all-reduce for partitioned state plus
different collectives:

* **stage 1/2** -- optimizer (and gradient) state is partitioned over the
  DP group: each layer's gradients are *reduce-scattered* (each rank
  keeps its shard) and the updated parameters are *all-gathered* before
  the next forward pass.  Total communicated volume equals plain DP's
  ring all-reduce.
* **stage 3** -- parameters are partitioned too: every layer all-gathers
  its parameters before the forward pass *and again* before the backward
  pass (they are freed in between), plus the gradient reduce-scatter --
  1.5x plain DP's volume, in exchange for an ~N-fold memory reduction.

The parameter all-gathers are prefetchable (issued ahead of the layer
that needs them), so like gradient reduce-scatters they are modeled as
*overlappable* communication; whether they actually hide under compute is
exactly the slack question the paper's Figure 11/13 machinery answers.
"""

from __future__ import annotations

from typing import List

from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    validate_model_parallel,
)
from repro.models import layers
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    Op,
    Phase,
    SubLayer,
    Trace,
)

__all__ = ["zero_training_trace"]


def _layer_param_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """One layer's TP-sharded parameter bytes (the DP-collective size)."""
    return (layers.attention_weight_bytes(model, parallel)
            + layers.fc_weight_bytes(model, parallel))


def _param_all_gather(model: ModelConfig, parallel: ParallelConfig,
                      phase: Phase, layer: int, tag: str) -> CommOp:
    return CommOp(
        name=f"zero.param_ag_{tag}",
        collective=CollectiveKind.ALL_GATHER,
        nbytes=_layer_param_bytes(model, parallel),
        group=CommGroup.DP,
        phase=phase,
        sublayer=SubLayer.OTHER,
        overlappable=True,
        layer=layer,
    )


def _grad_reduce_scatter(model: ModelConfig, parallel: ParallelConfig,
                         layer: int) -> CommOp:
    return CommOp(
        name="zero.grad_rs",
        collective=CollectiveKind.REDUCE_SCATTER,
        nbytes=_layer_param_bytes(model, parallel),
        group=CommGroup.DP,
        phase=Phase.BACKWARD,
        sublayer=SubLayer.OTHER,
        overlappable=True,
        layer=layer,
    )


def zero_training_trace(model: ModelConfig, parallel: ParallelConfig,
                        stage: int) -> Trace:
    """One training iteration under ZeRO data parallelism.

    Structure per layer: (prefetch param all-gather ->) standard forward
    ops; backward: (stage-3 param all-gather ->) standard backward ops
    with the plain-DP gradient all-reduce replaced by a reduce-scatter.
    """
    validate_model_parallel(model, parallel)
    if stage not in (1, 2, 3):
        raise ValueError(f"ZeRO stage must be 1, 2, or 3; got {stage}")
    dp = parallel.uses_data_parallelism
    ops: List[Op] = []
    for layer in range(model.num_layers):
        if dp:
            ops.append(_param_all_gather(model, parallel, Phase.FORWARD,
                                         layer, "fwd"))
        ops.extend(layers.layer_forward_ops(model, parallel, layer))
    for layer in reversed(range(model.num_layers)):
        if dp and stage >= 3:
            ops.append(_param_all_gather(model, parallel, Phase.BACKWARD,
                                         layer, "bwd"))
        for op in layers.layer_backward_ops(model, parallel, layer):
            if (isinstance(op, CommOp) and op.overlappable
                    and op.collective is CollectiveKind.ALL_REDUCE):
                continue  # replaced by the per-layer reduce-scatter
            ops.append(op)
        if dp:
            ops.append(_grad_reduce_scatter(model, parallel, layer))
    return Trace(model=model, parallel=parallel, ops=tuple(ops))
