"""Tensor-parallel sharding rules (Megatron-style, Section 2.3.3).

Tensor parallelism slices each Transformer layer across ``TP`` devices
(Figure 4(b)):

* the QKV and FC1 projections are *column parallel* -- the output feature
  dimension is divided by TP and no communication is needed after them;
* the attention output projection and FC2 are *row parallel* -- the input
  feature dimension is divided by TP, each device produces a partial sum
  of the full output, and an all-reduce combines the partials (the
  serialized communication of Section 3.3);
* attention score/context GEMMs shard by head.

This module provides the shared slicing helpers plus ZeRO-style optimizer
state partitioning used by the memory model (Section 6.1.3 context).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.hyperparams import ModelConfig, ParallelConfig

__all__ = [
    "shard_dim",
    "sharded_heads",
    "sharded_ffn",
    "sharded_qkv_out",
    "zero_optimizer_shard_fraction",
]


def shard_dim(total: int, tp: int, what: str = "dimension") -> int:
    """Divide a feature dimension evenly over ``tp`` devices.

    Raises:
        ValueError: if ``total`` is not divisible by ``tp`` -- uneven
            shards would make devices' workloads diverge.
    """
    if tp < 1:
        raise ValueError("tp must be >= 1")
    if total % tp != 0:
        raise ValueError(f"{what} ({total}) is not divisible by TP ({tp})")
    return total // tp


def sharded_heads(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Attention heads resident on one TP device."""
    return shard_dim(model.num_heads, parallel.tp, "num_heads")


def sharded_ffn(model: ModelConfig, parallel: ParallelConfig) -> int:
    """FC intermediate width resident on one TP device."""
    return shard_dim(model.ffn_dim, parallel.tp, "ffn_dim")


def sharded_qkv_out(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Fused QKV projection output width on one TP device (``3H / TP``)."""
    return shard_dim(3 * model.hidden, parallel.tp, "3 * hidden")


def zero_optimizer_shard_fraction(dp: int, zero_stage: int) -> float:
    """Fraction of optimizer state each DP replica keeps under ZeRO.

    Stage 0 replicates everything (fraction 1); stages 1-3 partition the
    optimizer states over the DP group (fraction ``1/dp``).  Gradient and
    parameter partitioning of stages 2/3 are handled by the memory model.

    Raises:
        ValueError: for stages outside 0-3.
    """
    if zero_stage not in (0, 1, 2, 3):
        raise ValueError(f"unknown ZeRO stage {zero_stage}")
    if zero_stage == 0 or dp <= 1:
        return 1.0
    return 1.0 / dp
