"""Autoregressive decoding traces (Section 6.3, distributed inference).

Generation has two phases with very different Comp-vs-Comm behaviour:

* **prefill** -- the prompt's forward pass; shaped like training's
  forward pass (large GEMMs, activation all-reduces of ``B * SL * H``).
* **decode** -- one token at a time against a KV cache: every GEMM
  collapses to ``m = B`` rows, yet each layer still pays its two
  tensor-parallel all-reduces, now of only ``B * H`` bytes.  Those tiny
  messages are *latency-bound*, so communication dominates decode far
  sooner than training -- the sharpest version of the paper's thesis.

KV-cache memory accounting is included because it, not weights, often
dictates the TP degree for long-context inference.
"""

from __future__ import annotations

from typing import List

from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    validate_model_parallel,
)
from repro.models import sharding
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
    GemmShape,
    Op,
    Phase,
    SubLayer,
    Trace,
)

__all__ = ["decode_step_trace", "kv_cache_bytes"]


def kv_cache_bytes(model: ModelConfig, parallel: ParallelConfig,
                   context_len: int) -> int:
    """Per-device KV-cache bytes for ``context_len`` cached tokens.

    Two tensors (K and V) of ``B * context * H`` per layer, head-sharded
    by TP.

    Raises:
        ValueError: for a non-positive context length.
    """
    if context_len <= 0:
        raise ValueError("context_len must be positive")
    per_layer = 2 * model.batch * context_len * (model.hidden // parallel.tp)
    return model.precision.bytes * model.num_layers * per_layer


def _decode_attention_ops(model: ModelConfig, parallel: ParallelConfig,
                          context_len: int, layer: int) -> List[Op]:
    heads = sharding.sharded_heads(model, parallel)
    batch = model.batch
    ops: List[Op] = [
        ElementwiseOp(
            name="attn.ln", elements=batch * model.hidden,
            phase=Phase.FORWARD, sublayer=SubLayer.ATTENTION,
            rw_factor=3.0, kind="layernorm", layer=layer,
        ),
        GemmOp(
            name="attn.qkv",
            shape=GemmShape(m=batch, k=model.hidden,
                            n=sharding.sharded_qkv_out(model, parallel)),
            phase=Phase.FORWARD, sublayer=SubLayer.ATTENTION, layer=layer,
        ),
        GemmOp(
            name="attn.scores",
            shape=GemmShape(m=1, n=context_len, k=model.head_dim,
                            batch=batch * heads),
            phase=Phase.FORWARD, sublayer=SubLayer.ATTENTION, layer=layer,
            has_weights=False,
        ),
        ElementwiseOp(
            name="attn.softmax", elements=batch * heads * context_len,
            phase=Phase.FORWARD, sublayer=SubLayer.ATTENTION,
            rw_factor=3.0, kind="softmax", layer=layer,
        ),
        GemmOp(
            name="attn.context",
            shape=GemmShape(m=1, n=model.head_dim, k=context_len,
                            batch=batch * heads),
            phase=Phase.FORWARD, sublayer=SubLayer.ATTENTION, layer=layer,
            has_weights=False,
        ),
        GemmOp(
            name="attn.out_proj",
            shape=GemmShape(
                m=batch,
                k=sharding.shard_dim(model.hidden, parallel.tp, "hidden"),
                n=model.hidden,
            ),
            phase=Phase.FORWARD, sublayer=SubLayer.ATTENTION, layer=layer,
        ),
    ]
    if parallel.uses_tensor_parallelism:
        ops.append(CommOp(
            name="attn.ar_decode",
            collective=CollectiveKind.ALL_REDUCE,
            nbytes=model.precision.bytes * batch * model.hidden,
            group=CommGroup.TP, phase=Phase.FORWARD,
            sublayer=SubLayer.ATTENTION, overlappable=False, layer=layer,
        ))
    return ops


def _decode_fc_ops(model: ModelConfig, parallel: ParallelConfig,
                   layer: int) -> List[Op]:
    ffn = sharding.sharded_ffn(model, parallel)
    batch = model.batch
    ops: List[Op] = [
        ElementwiseOp(
            name="fc.ln", elements=batch * model.hidden,
            phase=Phase.FORWARD, sublayer=SubLayer.FC,
            rw_factor=3.0, kind="layernorm", layer=layer,
        ),
        GemmOp(
            name="fc.fc1",
            shape=GemmShape(m=batch, k=model.hidden, n=ffn),
            phase=Phase.FORWARD, sublayer=SubLayer.FC, layer=layer,
        ),
        ElementwiseOp(
            name="fc.gelu", elements=batch * ffn,
            phase=Phase.FORWARD, sublayer=SubLayer.FC,
            rw_factor=2.0, kind="gelu", layer=layer,
        ),
        GemmOp(
            name="fc.fc2",
            shape=GemmShape(m=batch, k=ffn, n=model.hidden),
            phase=Phase.FORWARD, sublayer=SubLayer.FC, layer=layer,
        ),
    ]
    if parallel.uses_tensor_parallelism:
        ops.append(CommOp(
            name="fc.ar_decode",
            collective=CollectiveKind.ALL_REDUCE,
            nbytes=model.precision.bytes * batch * model.hidden,
            group=CommGroup.TP, phase=Phase.FORWARD,
            sublayer=SubLayer.FC, overlappable=False, layer=layer,
        ))
    return ops


def decode_step_trace(model: ModelConfig, parallel: ParallelConfig,
                      context_len: int) -> Trace:
    """Trace of generating ONE token against a ``context_len`` KV cache.

    All layers' decode operators in order; the trace's end-to-end time is
    the per-token generation latency.

    Raises:
        ValueError: for a non-positive context length or invalid setup.
    """
    if context_len <= 0:
        raise ValueError("context_len must be positive")
    validate_model_parallel(model, parallel)
    ops: List[Op] = []
    for layer in range(model.num_layers):
        ops.extend(_decode_attention_ops(model, parallel, context_len,
                                         layer))
        ops.extend(_decode_fc_ops(model, parallel, layer))
    return Trace(model=model, parallel=parallel, ops=tuple(ops))
