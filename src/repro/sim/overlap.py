"""Fine-grained computation/communication overlap (Section 5, Technique 3).

Serialized tensor-parallel all-reduces wait for their producing GEMM to
finish, then block everything behind them.  Decomposition techniques
(Wang et al., Jangda et al.) break that abstraction: the producing GEMM
is split into chunks along the token dimension and each chunk's partial
output is all-reduced *while the next chunk computes*, hiding most of the
communication behind the producer itself.

This module implements the transform on the simulated testbed: a
(producer GEMM -> serialized all-reduce) pair becomes interleaved chunk
tasks on the compute and communication streams.  The costs are modeled
faithfully:

* chunked GEMMs lose efficiency (smaller shapes, more launches),
* chunked all-reduces move smaller messages at lower achieved bandwidth,
* only the *last* chunk's all-reduce still blocks downstream work.

The net win -- and when fragmentation overheads eat it -- is exactly what
the `ablation-techniques` analysis quantifies.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.hardware.cluster import ClusterSpec
from repro.models.graph import (
    CollectiveKind,
    CommOp,
    GemmOp,
    GemmShape,
    Trace,
)
from repro.sim.breakdown import Breakdown
from repro.sim.engine import Task, run_schedule
from repro.sim.executor import (
    COMM_ASYNC_STREAM,
    COMM_STREAM,
    COMPUTE_STREAM,
    DEFAULT_TIMING,
    ExecutionResult,
    TimingModels,
    op_duration,
)

__all__ = ["decomposable_pairs", "execute_with_decomposition"]


def decomposable_pairs(trace: Trace) -> List[int]:
    """Indices of serialized all-reduces directly preceded by their
    producing GEMM (the pairs the decomposition can pipeline)."""
    indices = []
    for index in range(1, len(trace.ops)):
        op = trace.ops[index]
        if (isinstance(op, CommOp) and not op.overlappable
                and op.collective is CollectiveKind.ALL_REDUCE
                and isinstance(trace.ops[index - 1], GemmOp)):
            indices.append(index)
    return indices


def _chunked_gemm(op: GemmOp, chunks: int) -> Tuple[GemmOp, ...]:
    """Split a GEMM into ``chunks`` row slices (last takes the remainder)."""
    base_m = op.shape.m // chunks
    slices = []
    remaining = op.shape.m
    for index in range(chunks):
        rows = base_m if index < chunks - 1 else remaining
        remaining -= rows
        slices.append(op.replace(
            name=f"{op.name}[{index}]",
            shape=GemmShape(m=rows, n=op.shape.n, k=op.shape.k,
                            batch=op.shape.batch),
        ))
    return tuple(slices)


def _chunked_ar(op: CommOp, chunks: int) -> Tuple[CommOp, ...]:
    base = op.nbytes // chunks
    sizes = [base] * (chunks - 1) + [op.nbytes - base * (chunks - 1)]
    return tuple(
        op.replace(name=f"{op.name}[{index}]", nbytes=size)
        for index, size in enumerate(sizes)
    )


def execute_with_decomposition(
    trace: Trace,
    cluster: ClusterSpec,
    chunks: int = 4,
    timing: TimingModels = DEFAULT_TIMING,
) -> ExecutionResult:
    """Execute a trace with GEMM->all-reduce pairs pipelined in chunks.

    With ``chunks == 1`` this degenerates to the standard serialized
    execution.  Decomposition applies only where the all-reduce's producer
    immediately precedes it; the effective chunk count for each pair is
    clamped to ``min(chunks, gemm.m, ar.nbytes)`` so no chunk ever has
    zero GEMM rows or a zero-byte collective.

    Raises:
        ValueError: if ``chunks`` < 1.
    """
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    pair_indices = set(decomposable_pairs(trace)) if chunks > 1 else set()

    tasks: List[Task] = []
    last_blocking: Optional[str] = None
    index = 0
    ops = trace.ops
    while index < len(ops):
        op = ops[index]
        effective = 1
        if index + 1 in pair_indices and isinstance(op, GemmOp):
            effective = min(chunks, op.shape.m, ops[index + 1].nbytes)
        if effective > 1:
            ar = ops[index + 1]
            gemm_chunks = _chunked_gemm(op, effective)
            ar_chunks = _chunked_ar(ar, effective)
            ar_task_id = None
            for chunk, (gemm_op, ar_op) in enumerate(
                    zip(gemm_chunks, ar_chunks)):
                gemm_id = f"{index}:{gemm_op.name}"
                deps = (last_blocking,) if last_blocking else ()
                tasks.append(Task(
                    id=gemm_id,
                    resource=COMPUTE_STREAM,
                    duration=op_duration(gemm_op, trace, cluster, timing),
                    deps=deps,
                ))
                last_blocking = gemm_id
                ar_task_id = f"{index + 1}:{ar_op.name}"
                tasks.append(Task(
                    id=ar_task_id,
                    resource=COMM_STREAM,
                    duration=op_duration(ar_op, trace, cluster, timing),
                    deps=(gemm_id,),
                ))
            # Downstream work waits only for the final chunk's reduce.
            last_blocking = ar_task_id
            index += 2
            continue

        task_id = f"{index}:{op.name}"
        duration = op_duration(op, trace, cluster, timing)
        deps = (last_blocking,) if last_blocking else ()
        if isinstance(op, CommOp) and op.overlappable:
            tasks.append(Task(id=task_id, resource=COMM_ASYNC_STREAM,
                              duration=duration, deps=deps))
        else:
            resource = COMPUTE_STREAM if op.is_compute else COMM_STREAM
            tasks.append(Task(id=task_id, resource=resource,
                              duration=duration, deps=deps))
            last_blocking = task_id
        index += 1

    schedule = run_schedule(tasks)
    breakdown = Breakdown(
        compute_time=schedule.busy_time(COMPUTE_STREAM),
        serialized_comm_time=schedule.busy_time(COMM_STREAM),
        overlapped_comm_time=schedule.busy_time(COMM_ASYNC_STREAM),
        iteration_time=schedule.makespan,
    )
    return ExecutionResult(trace=trace, schedule=schedule,
                           breakdown=breakdown)
