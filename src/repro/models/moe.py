"""Mixture-of-Experts extension (Section 6.1.1).

MoE Transformers replace the dense FC sub-layer with a bank of expert
FFNs, sparsely activated per token.  Under *expert parallelism* the
experts are spread over ``EP`` devices and every layer adds two
**all-to-all** exchanges to the critical path -- dispatch (tokens to their
experts) and combine (expert outputs back) -- in both the forward and
backward passes.  This is additional *serialized* communication on top of
tensor parallelism's all-reduces, which is why the paper flags MoEs as
further strengthening its communication-bottleneck thesis.

The MoE trace builder mirrors :mod:`repro.models.layers` so MoE models
run through the same executor, profiler, and projection machinery.
"""

from __future__ import annotations

from typing import List

from repro._frozen import Frozen
from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    validate_model_parallel,
)
from repro.models import layers, sharding
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

__all__ = ["MoEConfig", "moe_fc_forward_ops", "moe_layer_trace"]


class MoEConfig(Frozen):
    """MoE routing hyperparameters.

    Attributes:
        num_experts: Total expert FFNs per MoE layer.
        top_k: Experts each token is routed to (Switch uses 1, GShard 2).
        capacity_factor: Per-expert buffer slack over the perfectly
            balanced load (tokens buffered per expert relative to
            ``tokens * top_k / num_experts``).
    """

    __slots__ = ("num_experts", "top_k", "capacity_factor")

    num_experts: int
    top_k: int
    capacity_factor: float

    def __init__(self, num_experts: int = 64, top_k: int = 2,
                 capacity_factor: float = 1.25) -> None:
        self._set(num_experts=num_experts, top_k=top_k,
                  capacity_factor=capacity_factor)
        if self.num_experts < 2:
            raise ValueError("num_experts must be >= 2")
        if not 1 <= self.top_k <= self.num_experts:
            raise ValueError("top_k must be in [1, num_experts]")
        if self.capacity_factor < 1.0:
            raise ValueError("capacity_factor must be >= 1")

    def routed_tokens(self, tokens: int) -> int:
        """Token-slots processed by experts for ``tokens`` inputs."""
        return int(tokens * self.top_k * self.capacity_factor)


def _dispatch_bytes(model: ModelConfig, moe: MoEConfig) -> int:
    """Bytes each device contributes to one dispatch/combine all-to-all."""
    tokens = model.batch * model.seq_len
    return model.precision.bytes * moe.routed_tokens(tokens) * model.hidden


def _all_to_all(name: str, model: ModelConfig, moe: MoEConfig, phase: Phase,
                layer: int) -> CommOp:
    return CommOp(
        name=name,
        collective=CollectiveKind.ALL_TO_ALL,
        nbytes=_dispatch_bytes(model, moe),
        group=CommGroup.EP,
        phase=phase,
        sublayer=SubLayer.MOE,
        overlappable=False,
        layer=layer,
    )


def moe_fc_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                       moe: MoEConfig, layer: int = 0) -> List[Op]:
    """Forward operators of an expert-parallel MoE FC sub-layer.

    Router projection -> dispatch all-to-all -> local expert FFNs ->
    combine all-to-all -> residual.  Each device hosts
    ``num_experts / EP`` experts and processes its share of routed
    tokens; expert weights are additionally TP-sharded like dense FC
    weights.
    """
    tokens = model.batch * model.seq_len
    local_tokens = max(1, moe.routed_tokens(tokens) // parallel.ep)
    ffn = sharding.sharded_ffn(model, parallel)
    ops: List[Op] = [
        ElementwiseOp(
            name="moe.ln",
            elements=tokens * model.hidden,
            phase=Phase.FORWARD,
            sublayer=SubLayer.MOE,
            rw_factor=3.0,
            kind="layernorm",
            layer=layer,
        ),
        GemmOp(
            name="moe.router",
            shape=GemmShape(m=tokens, k=model.hidden, n=moe.num_experts),
            phase=Phase.FORWARD,
            sublayer=SubLayer.MOE,
            layer=layer,
        ),
        _all_to_all("moe.dispatch", model, moe, Phase.FORWARD, layer),
        GemmOp(
            name="moe.expert_fc1",
            shape=GemmShape(m=local_tokens, k=model.hidden, n=ffn),
            phase=Phase.FORWARD,
            sublayer=SubLayer.MOE,
            layer=layer,
        ),
        ElementwiseOp(
            name="moe.gelu",
            elements=local_tokens * ffn,
            phase=Phase.FORWARD,
            sublayer=SubLayer.MOE,
            rw_factor=2.0,
            kind="gelu",
            layer=layer,
        ),
        GemmOp(
            name="moe.expert_fc2",
            shape=GemmShape(m=local_tokens, k=ffn, n=model.hidden),
            phase=Phase.FORWARD,
            sublayer=SubLayer.MOE,
            layer=layer,
        ),
        _all_to_all("moe.combine", model, moe, Phase.FORWARD, layer),
    ]
    if parallel.uses_tensor_parallelism:
        ops.append(
            CommOp(
                name="moe.ar_fwd",
                collective=CollectiveKind.ALL_REDUCE,
                nbytes=layers.activation_allreduce_bytes(model),
                group=CommGroup.TP,
                phase=Phase.FORWARD,
                sublayer=SubLayer.MOE,
                overlappable=False,
                layer=layer,
            )
        )
    ops.append(
        ElementwiseOp(
            name="moe.residual",
            elements=tokens * model.hidden,
            phase=Phase.FORWARD,
            sublayer=SubLayer.MOE,
            rw_factor=3.0,
            kind="residual",
            layer=layer,
        )
    )
    return ops


def _moe_fc_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                         moe: MoEConfig, layer: int) -> List[Op]:
    """Backward of the MoE FC sub-layer (mirrors the forward in reverse).

    Expert weight gradients reduce over the DP group only (each expert
    lives on one EP rank), sized like a dense FC's gradients scaled by the
    local expert count's share of routed work.
    """
    forward = moe_fc_forward_ops(model, parallel, moe, layer)
    ops: List[Op] = []
    for op in reversed(forward):
        if isinstance(op, GemmOp):
            ops.extend(layers.backward_gemms_for(op))
        elif isinstance(op, ElementwiseOp):
            ops.append(
                ElementwiseOp(
                    name=f"{op.name}.grad",
                    elements=op.elements,
                    phase=Phase.BACKWARD,
                    sublayer=SubLayer.MOE,
                    rw_factor=op.rw_factor,
                    kind=f"{op.kind}_grad",
                    layer=op.layer,
                )
            )
        elif op.collective is CollectiveKind.ALL_TO_ALL:
            suffix = "dispatch" if "combine" in op.name else "combine"
            ops.append(_all_to_all(f"moe.{suffix}_bwd", model, moe,
                                   Phase.BACKWARD, layer))
        else:
            ops.append(
                CommOp(
                    name="moe.ar_bwd",
                    collective=CollectiveKind.ALL_REDUCE,
                    nbytes=layers.activation_allreduce_bytes(model),
                    group=CommGroup.TP,
                    phase=Phase.BACKWARD,
                    sublayer=SubLayer.MOE,
                    overlappable=False,
                    layer=layer,
                )
            )
    if parallel.uses_data_parallelism:
        local_experts = max(1, moe.num_experts // parallel.ep)
        expert_params = 2 * model.hidden * (
            model.ffn_dim // parallel.tp
        ) * local_experts
        ops.append(
            CommOp(
                name="moe.grad_ar",
                collective=CollectiveKind.ALL_REDUCE,
                nbytes=model.precision.bytes * expert_params,
                group=CommGroup.DP,
                phase=Phase.BACKWARD,
                sublayer=SubLayer.MOE,
                overlappable=True,
                layer=layer,
            )
        )
    return ops


def moe_layer_trace(model: ModelConfig, parallel: ParallelConfig,
                    moe: MoEConfig, layer: int = 0) -> Trace:
    """Trace of one MoE Transformer layer's forward + backward execution.

    The attention sub-layer is the standard dense one; the FC sub-layer is
    the expert-parallel MoE block.
    """
    validate_model_parallel(model, parallel)
    ops: List[Op] = []
    ops.extend(layers.attention_forward_ops(model, parallel, layer))
    ops.extend(moe_fc_forward_ops(model, parallel, moe, layer))
    ops.extend(_moe_fc_backward_ops(model, parallel, moe, layer))
    ops.extend(layers.attention_backward_ops(model, parallel, layer))
    return Trace(model=model, parallel=parallel, ops=tuple(ops))
