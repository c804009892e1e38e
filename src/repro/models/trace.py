"""Training-iteration trace assembly.

Builds the full ordered operator trace of one training iteration (or one
inference forward pass, Section 6.3) of a Transformer under a given
distributed setup: all layers forward, then all layers backward in reverse
order, with DP gradient all-reduces interleaved where their producing
weight-gradient GEMMs complete -- the structure that gives data parallelism
its overlap opportunity (Figure 3(a)).
"""

from __future__ import annotations

import functools
from typing import List, Tuple

from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    validate_model_parallel,
)
from repro.models import layers
from repro.models.graph import Op, Phase, Trace

__all__ = ["training_trace", "forward_trace", "layer_trace"]


def _records(model: ModelConfig, parallel: ParallelConfig
             ) -> Tuple[List[layers.OpRecord], List[layers.OpRecord]]:
    """One layer's forward and backward op records.

    Every layer has the same operators and differs only in its index, so
    a trace builds the records once and stamps them per layer.
    """
    d = layers.LayerDims.of(model, parallel)
    records = layers.layer_records(d, parallel.uses_tensor_parallelism,
                                   parallel.uses_data_parallelism)
    split = sum(record.phase is Phase.FORWARD for record in records)
    return records[:split], records[split:]


def _stamp(records: List[layers.OpRecord], layer_ids) -> Tuple[Op, ...]:
    return tuple(record.to_op(layer) for layer in layer_ids
                 for record in records)


@functools.lru_cache(maxsize=4096)
def layer_trace(model: ModelConfig, parallel: ParallelConfig,
                layer: int = 0) -> Trace:
    """Trace of a single layer's forward + backward execution.

    Per-layer behaviour is identical across a Transformer's layers, so
    most analyses run on a single-layer trace and scale by the layer count.

    Memoized per ``(model, parallel, layer)`` (both configs are frozen
    and hashable); repeated scalar-path calls stop rebuilding identical
    op lists.  ``layer_trace.cache_clear()`` resets the cache (used by
    cold-path benchmarks).
    """
    validate_model_parallel(model, parallel)
    forward, backward = _records(model, parallel)
    return Trace(model=model, parallel=parallel,
                 ops=_stamp(forward + backward, (layer,)))


def training_trace(model: ModelConfig, parallel: ParallelConfig) -> Trace:
    """Trace of one full training iteration across all layers.

    Forward runs layers 0..L-1 in order; backward runs L-1..0.  Each
    layer's DP gradient all-reduce is emitted inside its backward block,
    so it can overlap with the backward compute of *earlier* layers -- the
    slack the paper analyzes (Section 3.4).
    """
    validate_model_parallel(model, parallel)
    forward, backward = _records(model, parallel)
    layer_ids = range(model.num_layers)
    return Trace(model=model, parallel=parallel,
                 ops=(_stamp(forward, layer_ids)
                      + _stamp(backward, reversed(layer_ids))))


def forward_trace(model: ModelConfig, parallel: ParallelConfig) -> Trace:
    """Forward-only trace (distributed inference, Section 6.3)."""
    validate_model_parallel(model, parallel)
    forward, _ = _records(model, parallel)
    return Trace(model=model, parallel=parallel,
                 ops=_stamp(forward, range(model.num_layers)))
