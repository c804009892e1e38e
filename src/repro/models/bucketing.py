"""Gradient-bucket tuning for data parallelism (DDP-style).

Frameworks coalesce weight gradients into buckets before all-reducing:
bigger buckets use the network better (the saturation curve of
Section 4.3.5), smaller buckets start communicating sooner and overlap
more of the backward pass.  This module rewrites a trace's overlappable
gradient all-reduces to a target bucket size --

* **coalescing** merges consecutive per-sub-layer all-reduces until the
  bucket reaches the target (the merged collective is emitted at the
  *last* contributor, where the full bucket is ready);
* **splitting** breaks an oversized gradient into multiple buckets that
  can pipeline.

The sweep over bucket sizes reproduces the classic DDP tuning curve:
too small is latency/underutilization-bound, too large forfeits overlap.
"""

from __future__ import annotations

from typing import List

from repro.models.graph import CollectiveKind, CommOp, Op, Trace

__all__ = ["bucket_gradients"]


def _is_gradient_ar(op: Op) -> bool:
    return (isinstance(op, CommOp) and op.overlappable
            and op.collective is CollectiveKind.ALL_REDUCE)


def _split(op: CommOp, bucket_bytes: int) -> List[CommOp]:
    pieces = []
    remaining = op.nbytes
    index = 0
    while remaining > 0:
        size = min(bucket_bytes, remaining)
        pieces.append(op.replace(name=f"{op.name}[{index}]", nbytes=size))
        remaining -= size
        index += 1
    return pieces


def bucket_gradients(trace: Trace, bucket_bytes: int) -> Trace:
    """Rewrite gradient all-reduces to ~``bucket_bytes`` buckets.

    Pending gradients coalesce across consecutive sub-layers until the
    bucket fills; any remainder flushes at the end of the trace.

    Raises:
        ValueError: for a non-positive bucket size or a trace without
            gradient all-reduces.
    """
    if bucket_bytes <= 0:
        raise ValueError("bucket_bytes must be positive")
    ops: List[Op] = []
    pending: List[CommOp] = []
    pending_bytes = 0
    seen = 0

    def flush() -> None:
        nonlocal pending, pending_bytes
        if not pending:
            return
        template = pending[-1]  # emitted where the bucket completed
        merged = template.replace(
            name=f"grad_bucket[{len([o for o in ops if _is_gradient_ar(o)])}]",
            nbytes=pending_bytes,
        )
        ops.extend(_split(merged, bucket_bytes))
        pending = []
        pending_bytes = 0

    for op in trace.ops:
        if _is_gradient_ar(op):
            seen += 1
            pending.append(op)
            pending_bytes += op.nbytes
            if pending_bytes >= bucket_bytes:
                flush()
        else:
            ops.append(op)
    flush()
    if not seen:
        raise ValueError(
            "trace has no overlappable gradient all-reduces to bucket "
            "(needs a data-parallel setup)"
        )
    return Trace(model=trace.model, parallel=trace.parallel,
                 ops=tuple(ops))
