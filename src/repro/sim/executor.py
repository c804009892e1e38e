"""Trace execution on the simulated testbed.

Turns an operator trace (:mod:`repro.models.graph`) into a scheduled
two-stream execution on a cluster (:mod:`repro.hardware.cluster`):

* compute ops run in order on the ``compute`` stream;
* serialized collectives run on the ``comm`` stream and block the compute
  stream (tensor parallelism's critical-path all-reduces, Figure 3(b));
* overlappable collectives run on the ``comm-async`` stream, issued as
  soon as their producing compute op finishes, overlapping later compute
  (data parallelism's gradient all-reduces, Figure 3(a)).

The result carries both the full schedule and the compute/serialized/
overlapped/exposed breakdown the paper's figures are built from.
:class:`TimingModels` and :data:`DEFAULT_TIMING` are defined in
:mod:`repro.hardware.timing` and re-exported here.
"""

from __future__ import annotations

from typing import List, Optional

from repro._frozen import Frozen
from repro.hardware import collectives
from repro.hardware.cluster import ClusterSpec
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.models.graph import (
    CollectiveKind,
    CommOp,
    ElementwiseOp,
    GemmOp,
    Op,
    Trace,
)
from repro.sim.breakdown import Breakdown
from repro.sim.engine import Schedule, Task, run_schedule

__all__ = [
    "COMPUTE_STREAM",
    "COMM_STREAM",
    "COMM_ASYNC_STREAM",
    "TimingModels",
    "DEFAULT_TIMING",
    "op_duration",
    "ExecutionResult",
    "execute_trace",
    "schedule_with_durations",
]

COMPUTE_STREAM = "compute"
COMM_STREAM = "comm"
COMM_ASYNC_STREAM = "comm-async"


def _comm_duration(op: CommOp, group_size: int, cluster: ClusterSpec) -> float:
    if group_size <= 1:
        return 0.0
    if op.collective is CollectiveKind.ALL_REDUCE:
        return cluster.all_reduce_time(op.nbytes, group_size,
                                       overlapped=op.overlappable)
    if op.collective is CollectiveKind.ALL_TO_ALL:
        return cluster.all_to_all_time(op.nbytes, group_size)
    if op.collective is CollectiveKind.REDUCE_SCATTER:
        return collectives.reduce_scatter_time(
            op.nbytes, group_size, cluster.link_for_group(group_size),
            model=cluster.collective_model,
        )
    if op.collective is CollectiveKind.ALL_GATHER:
        return collectives.all_gather_time(
            op.nbytes, group_size, cluster.link_for_group(group_size),
            model=cluster.collective_model,
        )
    if op.collective is CollectiveKind.P2P:
        return cluster.p2p_time(op.nbytes, cross_node=True)
    raise ValueError(f"unhandled collective kind: {op.collective}")


def op_duration(op: Op, trace: Trace, cluster: ClusterSpec,
                timing: TimingModels = DEFAULT_TIMING) -> float:
    """Isolated execution time of one operator on the cluster's device."""
    if isinstance(op, GemmOp):
        return timing.gemm.time(op.shape, cluster.device,
                                trace.model.precision)
    if isinstance(op, ElementwiseOp):
        return timing.elementwise.time(
            op.elements, cluster.device, trace.model.precision,
            rw_factor=op.rw_factor, kind=op.kind,
        )
    if isinstance(op, CommOp):
        return _comm_duration(op, trace.group_size(op.group), cluster)
    raise TypeError(f"unknown op type: {type(op)!r}")


class ExecutionResult(Frozen):
    """A scheduled trace execution plus its time breakdown."""

    __slots__ = ("trace", "schedule", "breakdown")

    trace: Trace
    schedule: Schedule
    breakdown: Breakdown

    def __init__(self, trace: Trace, schedule: Schedule,
                 breakdown: Breakdown) -> None:
        self._set(trace=trace, schedule=schedule, breakdown=breakdown)


def schedule_with_durations(trace: Trace,
                            durations: List[float],
                            shared_network: bool = False) -> ExecutionResult:
    """Schedule a trace whose per-op durations are supplied externally.

    This is the common backend of ground-truth execution (durations from
    the hardware timing models) and operator-model projection (durations
    from fitted scaling laws): both produce the same two-stream schedule
    and breakdown, differing only in where durations come from.

    Args:
        shared_network: Put serialized and overlappable collectives on
            ONE network resource instead of independent streams.  The
            default (independent streams) assumes the fabric carries TP
            and DP traffic concurrently at full rate -- optimistic, like
            the paper's estimates; sharing models a fabric where an
            in-flight gradient all-reduce delays a critical-path TP
            all-reduce queued behind it.

    Raises:
        ValueError: if ``durations`` does not match the trace length.
    """
    if len(durations) != len(trace.ops):
        raise ValueError(
            f"got {len(durations)} durations for {len(trace.ops)} ops"
        )
    async_resource = COMM_STREAM if shared_network else COMM_ASYNC_STREAM
    tasks: List[Task] = []
    async_ids: List[str] = []
    last_blocking: Optional[str] = None
    for index, (op, duration) in enumerate(zip(trace.ops, durations)):
        task_id = f"{index}:{op.name}"
        deps = (last_blocking,) if last_blocking is not None else ()
        if isinstance(op, CommOp) and op.overlappable:
            tasks.append(Task(id=task_id, resource=async_resource,
                              duration=duration, deps=deps))
            async_ids.append(task_id)
            continue
        resource = COMPUTE_STREAM if op.is_compute else COMM_STREAM
        tasks.append(Task(id=task_id, resource=resource, duration=duration,
                          deps=deps))
        last_blocking = task_id

    schedule = run_schedule(tasks)
    async_id_set = set(async_ids)
    overlapped_busy = sum(
        st.task.duration for st in schedule.tasks
        if st.task.id in async_id_set
    )
    breakdown = Breakdown(
        compute_time=schedule.busy_time(COMPUTE_STREAM),
        serialized_comm_time=(
            schedule.busy_time(COMM_STREAM) - (
                overlapped_busy if shared_network else 0.0
            )
        ),
        overlapped_comm_time=overlapped_busy,
        iteration_time=schedule.makespan,
    )
    return ExecutionResult(trace=trace, schedule=schedule,
                           breakdown=breakdown)


def execute_trace(trace: Trace, cluster: ClusterSpec,
                  timing: TimingModels = DEFAULT_TIMING,
                  shared_network: bool = False) -> ExecutionResult:
    """Execute a trace on a cluster and return schedule + breakdown."""
    durations = [op_duration(op, trace, cluster, timing)
                 for op in trace.ops]
    return schedule_with_durations(trace, durations,
                                   shared_network=shared_network)
