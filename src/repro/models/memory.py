"""Per-device memory footprint model (Sections 2.2 and 3.5).

The paper's central scaling tension is that model memory demand grows much
faster than device memory capacity, forcing small batch sizes and large TP
degrees.  This module quantifies the demand: parameters, gradients,
optimizer state (mixed-precision Adam), and activations, per device under
a (TP, DP, PP) setup, with optional activation checkpointing and ZeRO
optimizer-state partitioning.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware.specs import DeviceSpec
from repro.models import sharding

__all__ = [
    "ADAM_OPTIMIZER_BYTES_PER_PARAM",
    "MemoryFootprint",
    "activation_bytes_per_layer",
    "memory_footprint",
    "fits_on_device",
    "min_tp_degree",
]

#: Mixed-precision Adam keeps an fp32 master copy plus fp32 momentum and
#: variance: 12 bytes of optimizer state per parameter.
ADAM_OPTIMIZER_BYTES_PER_PARAM = 12


class MemoryFootprint(Frozen):
    """Per-device memory demand of a training setup, in bytes."""

    __slots__ = ("params", "gradients", "optimizer", "activations")

    params: int
    gradients: int
    optimizer: int
    activations: int

    def __init__(self, params: int, gradients: int, optimizer: int,
                 activations: int) -> None:
        self._set(params=params, gradients=gradients, optimizer=optimizer,
                  activations=activations)

    @property
    def total(self) -> int:
        return self.params + self.gradients + self.optimizer + self.activations

    @property
    def total_gb(self) -> float:
        return self.total / 1e9


def activation_bytes_per_layer(
    model: ModelConfig,
    parallel: ParallelConfig,
    checkpointing: bool = False,
) -> int:
    """Stored activation bytes of one layer's forward pass, per device.

    Counts the tensors that must be retained for the backward pass:
    the two LayerNorm inputs and sub-layer outputs (``~6 * B*SL*H``), the
    QKV/context/out-proj intermediates (TP sharded), the attention score
    matrix (``B * heads/TP * SL^2``), and the FC intermediates
    (``2 * B*SL*ffn/TP``).  With activation checkpointing only the layer
    input is stored and the rest recomputed.
    """
    p = model.precision.bytes
    tokens = model.batch * model.seq_len
    if checkpointing:
        return p * tokens * model.hidden
    heads = sharding.sharded_heads(model, parallel)
    ffn = sharding.sharded_ffn(model, parallel)
    hidden_tensors = 6 * tokens * model.hidden
    qkv = tokens * (3 * model.hidden // parallel.tp)
    context = tokens * (model.hidden // parallel.tp)
    scores = 2 * model.batch * heads * model.seq_len * model.seq_len
    fc = 2 * tokens * ffn
    return p * (hidden_tensors + qkv + context + scores + fc)


def memory_footprint(
    model: ModelConfig,
    parallel: ParallelConfig,
    checkpointing: bool = False,
    zero_stage: int = 0,
) -> MemoryFootprint:
    """Per-device memory demand of training ``model`` under ``parallel``.

    Parameters and gradients are sharded by TP and PP; ZeRO additionally
    partitions state over the DP group -- stage 1 the optimizer, stage 2
    also the gradients, stage 3 also the parameters; activations shard by
    TP (and PP splits the layer stack).
    """
    layers_per_device = -(-model.num_layers // parallel.pp)
    params_per_device = (
        layers_per_device * model.params_per_layer() // parallel.tp
    )
    zero_fraction = sharding.zero_optimizer_shard_fraction(
        parallel.dp, zero_stage
    )
    param_fraction = zero_fraction if zero_stage >= 3 else 1.0
    grad_fraction = zero_fraction if zero_stage >= 2 else 1.0
    param_bytes = int(params_per_device * model.precision.bytes
                      * param_fraction)
    grad_bytes = int(params_per_device * model.precision.bytes
                     * grad_fraction)
    optimizer_bytes = int(
        params_per_device * ADAM_OPTIMIZER_BYTES_PER_PARAM * zero_fraction
    )
    activation_bytes = layers_per_device * activation_bytes_per_layer(
        model, parallel, checkpointing=checkpointing
    )
    return MemoryFootprint(
        params=param_bytes,
        gradients=grad_bytes,
        optimizer=optimizer_bytes,
        activations=activation_bytes,
    )


def fits_on_device(
    model: ModelConfig,
    parallel: ParallelConfig,
    device: DeviceSpec,
    checkpointing: bool = False,
    zero_stage: int = 0,
    headroom: float = 0.9,
) -> bool:
    """Whether the per-device footprint fits in ``headroom`` of capacity.

    ``headroom`` reserves a fraction of HBM for workspace/fragmentation.
    """
    if not 0 < headroom <= 1:
        raise ValueError("headroom must be in (0, 1]")
    footprint = memory_footprint(model, parallel, checkpointing=checkpointing,
                                 zero_stage=zero_stage)
    return footprint.total <= device.mem_capacity * headroom


def min_tp_degree(
    model: ModelConfig,
    device: DeviceSpec,
    max_tp: int = 4096,
    checkpointing: bool = True,
    headroom: float = 0.9,
) -> int:
    """Smallest power-of-two TP degree at which the model fits one device.

    A capacity-driven alternative to the trend-based estimator of
    :func:`repro.core.scaling.required_tp`.

    Raises:
        ValueError: if the model does not fit even at ``max_tp`` (a larger
            cluster or pipeline parallelism is needed).
    """
    tp = 1
    while tp <= max_tp:
        candidate = ParallelConfig(tp=tp, dp=1)
        if (model.num_heads % tp == 0 and model.ffn_dim % tp == 0
                and fits_on_device(model, candidate, device,
                                   checkpointing=checkpointing,
                                   headroom=headroom)):
            return tp
        tp *= 2
    raise ValueError(
        f"{model.name} does not fit on {device.name} even with TP={max_tp}"
    )
