"""Amdahl's Law edge analysis (Sections 2.3.3 and 3.3).

Tensor parallelism puts its activation/error all-reduces on the critical
path of model execution: a layer's forward (and backward) computation
cannot begin until the previous layer's all-reduce completes.  Compute's
*Amdahl's Law edge* is the ratio of compute operations to serialized
communication bytes -- Equation 6: ``O((H + SL) / TP)``.

This module computes both the exact ratio (with constant factors, from the
per-layer counts of :mod:`repro.core.flops`) and the asymptotic form, plus
the zoo-wide normalized series plotted in Figure 7.
"""

from __future__ import annotations

from typing import List, Sequence

from repro._frozen import Frozen
from repro.core import algebra, flops
from repro.core.hyperparams import ModelConfig, ParallelConfig

__all__ = ["EdgeAnalysis", "amdahl_edge", "edge_series"]


class EdgeAnalysis(Frozen):
    """Result of the Amdahl's-Law-edge computation for one configuration.

    Attributes:
        model: The analyzed model configuration.
        parallel: The analyzed distributed setup.
        compute_ops: Per-layer training-iteration GEMM operations.
        serialized_bytes: Per-layer serialized (TP) all-reduce bytes.
        exact_ratio: ``compute_ops / serialized_bytes`` (ops per byte).
        asymptotic_ratio: The Equation 6 form ``(H + SL) / TP``.
    """

    __slots__ = ("model", "parallel", "compute_ops", "serialized_bytes",
                 "exact_ratio", "asymptotic_ratio")

    model: ModelConfig
    parallel: ParallelConfig
    compute_ops: int
    serialized_bytes: int
    exact_ratio: float
    asymptotic_ratio: float

    def __init__(self, model: ModelConfig, parallel: ParallelConfig,
                 compute_ops: int, serialized_bytes: int, exact_ratio: float,
                 asymptotic_ratio: float) -> None:
        self._set(model=model, parallel=parallel, compute_ops=compute_ops,
                  serialized_bytes=serialized_bytes, exact_ratio=exact_ratio,
                  asymptotic_ratio=asymptotic_ratio)


def amdahl_edge(model: ModelConfig, parallel: ParallelConfig) -> EdgeAnalysis:
    """Compute compute's Amdahl's Law edge for one (model, setup) pair.

    Raises:
        ValueError: if the setup does not use tensor parallelism (there is
            no serialized communication to compare against).
    """
    if not parallel.uses_tensor_parallelism:
        raise ValueError(
            "Amdahl's Law edge is defined for tensor-parallel setups (TP > 1)"
        )
    ops = flops.training_layer_ops(model, parallel)
    comm = flops.serialized_comm_bytes(model, parallel)
    return EdgeAnalysis(
        model=model,
        parallel=parallel,
        compute_ops=ops,
        serialized_bytes=comm,
        exact_ratio=ops / comm,
        asymptotic_ratio=algebra.edge_complexity(model, parallel),
    )


def edge_series(
    models: Sequence[ModelConfig],
    parallels: Sequence[ParallelConfig],
    normalize: bool = True,
) -> List[float]:
    """Edge ratios for a series of (model, setup) pairs (Figure 7).

    Args:
        models: Models in plotting order (first entry is the baseline).
        parallels: Matching distributed setups, one per model.
        normalize: Normalize to the first entry, as Figure 7 does to BERT.

    Raises:
        ValueError: if the two sequences differ in length.
    """
    if len(models) != len(parallels):
        raise ValueError("models and parallels must have the same length")
    # The asymptotic form (H + SL) / TP is well defined at TP = 1 too
    # (BERT-era models), so the series uses it directly.
    ratios = [algebra.edge_complexity(m, p)
              for m, p in zip(models, parallels)]
    if normalize:
        return algebra.normalized_series(ratios)
    return ratios
