"""Algorithmic operation and communication-byte counts (Section 3.3/3.4).

Implements the paper's Equations 1-9: per-layer GEMM operation counts under
tensor parallelism, serialized (TP) all-reduce byte counts, and the
overlapped (DP) weight-gradient all-reduce byte counts.

Two views are provided:

* The *paper-equation* functions below, which follow the exact closed forms
  printed in the paper (Figure 4, Equations 1-5).  They assume the
  conventional ``ffn_dim = 4 * H`` expansion.
* The shape-accurate per-GEMM view in :mod:`repro.models.layers`, which
  enumerates each GEMM with explicit (M, N, K) dimensions.  The test suite
  cross-checks that the two agree.

All "ops" counts follow the paper's convention of ``2 * M * N * K``
multiply-add operations per GEMM.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig

__all__ = [
    "fc_gemm_ops",
    "attention_gemm_ops",
    "linear_gemm_ops",
    "forward_layer_ops",
    "backward_layer_ops",
    "training_layer_ops",
    "serialized_comm_bytes",
    "fc_backprop_gemm_ops",
    "fc_weight_grad_bytes",
    "layer_weight_grad_bytes",
    "LayerCounts",
    "layer_counts",
]

#: All-reduces per layer per training iteration on the TP critical path:
#: two in the forward pass (after attention out-projection and after FC2)
#: and their two conjugates in the backward pass (Section 3.3).
SERIALIZED_ALL_REDUCES_PER_LAYER = 4


def fc_gemm_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Equation 1: forward FC (feed-forward) GEMM operations per layer.

    ``2 * (4H * H/TP * SL * B)`` for each of the two FC GEMMs
    (H -> ffn_dim and ffn_dim -> H), i.e. ``O(H^2 * SL * B / TP)``.
    """
    per_gemm = 2 * model.ffn_dim * (model.hidden // 1) * model.slb // parallel.tp
    return 2 * per_gemm


def attention_gemm_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Equation 2: forward attention (score + context) GEMM operations.

    Each of the two batched attention GEMMs costs
    ``2 * (H/TP * SL * SL * B)``, i.e. ``O(H * SL^2 * B / TP)``.
    """
    per_gemm = 2 * (model.hidden * model.seq_len * model.seq_len
                    * model.batch) // parallel.tp
    return 2 * per_gemm


def linear_gemm_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Equation 3 + output projection: attention linear GEMM operations.

    The QKV projections cost ``3 * 2 * (H/TP * H * SL * B)`` (Equation 3)
    and the attention output projection adds one more
    ``2 * (H/TP * H * SL * B)``, i.e. ``O(H^2 * SL * B / TP)`` total.
    """
    per_gemm = 2 * (model.hidden * model.hidden * model.slb) // parallel.tp
    return 4 * per_gemm


def forward_layer_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Equation 4: total forward GEMM operations of one Transformer layer.

    ``O(H * SL * B / TP * (H + SL))``.
    """
    return (
        fc_gemm_ops(model, parallel)
        + attention_gemm_ops(model, parallel)
        + linear_gemm_ops(model, parallel)
    )


def backward_layer_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Backward-pass GEMM operations of one layer.

    Each forward GEMM spawns two backward GEMMs of the same cost (input
    gradient and weight gradient), so the backward pass is 2x the forward.
    """
    return 2 * forward_layer_ops(model, parallel)


def training_layer_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Forward + backward GEMM operations of one layer (3x forward)."""
    return forward_layer_ops(model, parallel) + backward_layer_ops(model, parallel)


def serialized_comm_bytes(model: ModelConfig, parallel: ParallelConfig,
                          per_all_reduce: bool = False) -> int:
    """Equation 5: serialized (TP) all-reduce bytes per layer per iteration.

    Each of the four serialized all-reduces moves one activation/error
    matrix of ``(precision/8) * H * SL * B`` bytes; ``O(H * SL * B)``.
    The byte count is independent of the TP degree (every device must see
    the full reduced activation).

    Args:
        per_all_reduce: return the size of a single all-reduce instead of
            the per-layer total.
    """
    if not parallel.uses_tensor_parallelism:
        return 0
    single = model.precision.bytes * model.hidden * model.slb
    if per_all_reduce:
        return single
    return SERIALIZED_ALL_REDUCES_PER_LAYER * single


def fc_backprop_gemm_ops(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Equation 7: FC sub-layer backprop (WG + IG) GEMM operations.

    ``4 * (4H * H/TP * SL * B)``: the weight-gradient and error (input
    gradient) GEMMs for both FC matrices; ``O(H^2 * SL * B / TP)``.
    """
    return 2 * (2 * 2 * model.ffn_dim * model.hidden * model.slb) // parallel.tp


def fc_weight_grad_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Equation 8: DP all-reduce bytes for the FC sub-layer's gradients.

    ``(precision/8) * (4H * H/TP) * 2``: both FC weight matrices, sharded
    by TP; ``O(H^2 / TP)``.  Zero when data parallelism is not used.
    """
    if not parallel.uses_data_parallelism:
        return 0
    return model.precision.bytes * 2 * (model.ffn_dim * model.hidden) // parallel.tp


def layer_weight_grad_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """DP all-reduce bytes for one full layer's weight gradients.

    The per-device gradient volume is the layer's TP-sharded parameter
    count times the gradient precision.
    """
    if not parallel.uses_data_parallelism:
        return 0
    sharded_params = model.params_per_layer() // parallel.tp
    return model.precision.bytes * sharded_params


class LayerCounts(Frozen):
    """Per-layer algorithmic totals for one training iteration.

    Attributes:
        compute_ops: GEMM multiply-add operations (forward + backward).
        serialized_bytes: TP all-reduce bytes on the critical path.
        overlapped_bytes: DP weight-gradient all-reduce bytes (overlappable).
    """

    __slots__ = ("compute_ops", "serialized_bytes", "overlapped_bytes")

    compute_ops: int
    serialized_bytes: int
    overlapped_bytes: int

    def __init__(self, compute_ops: int, serialized_bytes: int,
                 overlapped_bytes: int) -> None:
        self._set(compute_ops=compute_ops, serialized_bytes=serialized_bytes,
                  overlapped_bytes=overlapped_bytes)

    @property
    def ops_per_serialized_byte(self) -> float:
        """Empirical form of the Amdahl's-Law-edge ratio (Equation 6)."""
        if self.serialized_bytes == 0:
            return float("inf")
        return self.compute_ops / self.serialized_bytes

    @property
    def ops_per_overlapped_byte(self) -> float:
        """Empirical form of the slack-advantage ratio (Equation 9)."""
        if self.overlapped_bytes == 0:
            return float("inf")
        return self.compute_ops / self.overlapped_bytes


def layer_counts(model: ModelConfig, parallel: ParallelConfig) -> LayerCounts:
    """Aggregate the per-layer training-iteration counts."""
    return LayerCounts(
        compute_ops=training_layer_ops(model, parallel),
        serialized_bytes=serialized_comm_bytes(model, parallel),
        overlapped_bytes=layer_weight_grad_bytes(model, parallel),
    )
