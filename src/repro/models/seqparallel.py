"""Sequence parallelism on top of tensor parallelism.

Megatron-style sequence parallelism (Korthikanti et al.) shards the
*activations* of the non-GEMM regions along the sequence dimension across
the TP group and replaces each tensor-parallel all-reduce with a
reduce-scatter entering the region and an all-gather leaving it.  The
identity ``all-reduce = reduce-scatter + all-gather`` keeps the
communicated volume the same while:

* cutting the LayerNorm/residual/dropout activation memory and traffic by
  the TP degree, and
* replacing one bandwidth-bound collective with two half-sized ones
  (slightly more latency, same bytes).

It is the natural refinement of the serialized communication the paper
analyzes, and a useful probe: Comp-vs-Comm fractions barely move, but
per-device activation memory drops -- the technique buys memory, not
communication.
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
    ElementwiseOp,
    Op,
    Trace,
)

__all__ = [
    "sequence_parallel_ops",
    "sequence_parallel_trace",
    "activation_memory_saving",
]


def _split_all_reduce(op: CommOp) -> List[CommOp]:
    """Replace a TP all-reduce with reduce-scatter + all-gather.

    Each half moves the same buffer with the ring's one-directional
    traffic, so total bytes on the wire match the original all-reduce.
    """
    scatter = op.replace(
        name=op.name.replace("ar", "rs"),
        collective=CollectiveKind.REDUCE_SCATTER,
    )
    gather = op.replace(
        name=op.name.replace("ar", "ag"),
        collective=CollectiveKind.ALL_GATHER,
    )
    return [scatter, gather]


def _shard_elementwise(op: ElementwiseOp, tp: int) -> ElementwiseOp:
    """Sequence-shard a non-GEMM op's activations across the TP group."""
    return op.replace(elements=max(1, op.elements // tp))


def sequence_parallel_ops(ops: List[Op], model: ModelConfig,
                          parallel: ParallelConfig) -> List[Op]:
    """Transform a layer's ops into their sequence-parallel form.

    TP all-reduces split into reduce-scatter + all-gather pairs;
    LayerNorm and residual kernels operate on ``1/TP`` of the tokens.
    Attention-internal softmax and the FC GeLU are already TP-sharded
    (by head and by column respectively) and stay unchanged.
    """
    transformed: List[Op] = []
    for op in ops:
        if (isinstance(op, CommOp) and op.group is CommGroup.TP
                and op.collective is CollectiveKind.ALL_REDUCE
                and not op.overlappable):
            transformed.extend(_split_all_reduce(op))
        elif (isinstance(op, ElementwiseOp)
              and op.kind.startswith(("layernorm", "residual"))):
            transformed.append(_shard_elementwise(op, parallel.tp))
        else:
            transformed.append(op)
    return transformed


def sequence_parallel_trace(model: ModelConfig,
                            parallel: ParallelConfig) -> Trace:
    """One training iteration under tensor + sequence parallelism.

    Raises:
        ValueError: if the setup is not tensor parallel (sequence
            parallelism rides on the TP group) or shapes do not divide.
    """
    validate_model_parallel(model, parallel)
    if not parallel.uses_tensor_parallelism:
        raise ValueError(
            "sequence parallelism shards over the TP group; need TP > 1"
        )
    if model.seq_len % parallel.tp != 0:
        raise ValueError(
            f"seq_len ({model.seq_len}) must be divisible by TP "
            f"({parallel.tp})"
        )
    ops: List[Op] = []
    for layer in range(model.num_layers):
        ops.extend(sequence_parallel_ops(
            layers.layer_forward_ops(model, parallel, layer), model,
            parallel,
        ))
    for layer in reversed(range(model.num_layers)):
        ops.extend(sequence_parallel_ops(
            layers.layer_backward_ops(model, parallel, layer), model,
            parallel,
        ))
    return Trace(model=model, parallel=parallel, ops=tuple(ops))


def activation_memory_saving(model: ModelConfig,
                             parallel: ParallelConfig) -> int:
    """Per-layer activation bytes saved by sequence parallelism.

    The LayerNorm inputs and sub-layer outputs (``~6 * B*SL*H`` stored
    tensors) shard by TP instead of being replicated.
    """
    replicated = (6 * model.batch * model.seq_len * model.hidden
                  * model.precision.bytes)
    sharded = replicated // parallel.tp
    return replicated - sharded
