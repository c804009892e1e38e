"""Slack-advantage analysis (Sections 2.3.2 and 3.4).

Data parallelism all-reduces weight gradients during the backward pass;
this communication can proceed asynchronously with the gradient computation
of other layers, so it is *overlappable*.  Compute's *slack advantage* is
the ratio of backprop GEMM operations to the overlapped gradient all-reduce
bytes -- Equation 9: ``O(SL * B)`` -- i.e. compute's headroom to hide the
communication entirely.

This module computes the exact and asymptotic slack ratios and the
zoo-wide normalized series plotted in Figure 7.
"""

from __future__ import annotations

from typing import List, Sequence

from repro._frozen import Frozen
from repro.core import algebra, flops
from repro.core.hyperparams import ModelConfig, ParallelConfig

__all__ = ["SlackAnalysis", "slack_advantage", "slack_series"]


class SlackAnalysis(Frozen):
    """Result of the slack-advantage computation for one configuration.

    Attributes:
        model: The analyzed model configuration.
        parallel: The analyzed distributed setup.
        backprop_ops: Per-layer backward-pass (WG + IG) GEMM operations.
        overlapped_bytes: Per-layer DP weight-gradient all-reduce bytes.
        exact_ratio: ``backprop_ops / overlapped_bytes`` (ops per byte).
        asymptotic_ratio: The Equation 9 form ``SL * B``.
    """

    __slots__ = ("model", "parallel", "backprop_ops", "overlapped_bytes",
                 "exact_ratio", "asymptotic_ratio")

    model: ModelConfig
    parallel: ParallelConfig
    backprop_ops: int
    overlapped_bytes: int
    exact_ratio: float
    asymptotic_ratio: float

    def __init__(self, model: ModelConfig, parallel: ParallelConfig,
                 backprop_ops: int, overlapped_bytes: int, exact_ratio: float,
                 asymptotic_ratio: float) -> None:
        self._set(model=model, parallel=parallel, backprop_ops=backprop_ops,
                  overlapped_bytes=overlapped_bytes, exact_ratio=exact_ratio,
                  asymptotic_ratio=asymptotic_ratio)


def slack_advantage(model: ModelConfig, parallel: ParallelConfig
                    ) -> SlackAnalysis:
    """Compute compute's slack advantage for one (model, setup) pair.

    The overlapped communication analysis is agnostic to the DP degree
    itself (Section 4.3.2): gradient volume and backprop FLOPs per device
    do not change with DP, so any ``dp > 1`` behaves identically.

    Raises:
        ValueError: if the setup does not use data parallelism (there is no
            overlapped gradient communication).
    """
    if not parallel.uses_data_parallelism:
        raise ValueError(
            "slack advantage is defined for data-parallel setups (DP > 1)"
        )
    ops = flops.backward_layer_ops(model, parallel)
    comm = flops.layer_weight_grad_bytes(model, parallel)
    return SlackAnalysis(
        model=model,
        parallel=parallel,
        backprop_ops=ops,
        overlapped_bytes=comm,
        exact_ratio=ops / comm,
        asymptotic_ratio=algebra.slack_complexity(model),
    )


def slack_series(
    models: Sequence[ModelConfig],
    parallels: Sequence[ParallelConfig],
    normalize: bool = True,
) -> List[float]:
    """Slack ratios for a series of (model, setup) pairs (Figure 7).

    Args:
        models: Models in plotting order (first entry is the baseline).
        parallels: Matching distributed setups, one per model.
        normalize: Normalize to the first entry, as Figure 7 does to BERT.

    Raises:
        ValueError: if the two sequences differ in length.
    """
    if len(models) != len(parallels):
        raise ValueError("models and parallels must have the same length")
    ratios = [slack_advantage(m, p).asymptotic_ratio
              for m, p in zip(models, parallels)]
    if normalize:
        return algebra.normalized_series(ratios)
    return ratios
