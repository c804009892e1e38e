"""Deterministic discrete-event scheduler for resource-constrained DAGs.

The execution engine underneath the simulated testbed: tasks (operator
executions) are placed on named resources (the device's compute stream,
the communication stream, ...); a task starts when all of its dependencies
have finished *and* its resource is free, and runs for its fixed duration.
Resources execute one task at a time in submission order (a stream), which
matches GPU stream semantics.

The scheduler is event-free in implementation -- because each resource is
FIFO and durations are fixed, a single topological pass computes the exact
start/finish times a full event queue would.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Tuple

from repro._frozen import Frozen

__all__ = ["Task", "ScheduledTask", "Schedule", "run_schedule"]

#: The simulator builds thousands of these records per trace, so they
#: assign their slots directly instead of through ``Frozen._set``.
_assign = object.__setattr__


class Task(Frozen):
    """A unit of work bound to one resource.

    Attributes:
        id: Unique task identifier.
        resource: Name of the stream/engine executing the task.
        duration: Execution time, seconds (>= 0; zero-length tasks are
            allowed as synchronization points).
        deps: IDs of tasks that must finish before this one starts.
    """

    __slots__ = ("id", "resource", "duration", "deps")

    id: str
    resource: str
    duration: float
    deps: Tuple[str, ...]

    def __init__(self, id: str, resource: str, duration: float,
                 deps: Sequence[str] = ()) -> None:
        if duration < 0:
            raise ValueError(f"task {id!r} has negative duration")
        _assign(self, "id", id)
        _assign(self, "resource", resource)
        _assign(self, "duration", duration)
        _assign(self, "deps", deps if isinstance(deps, tuple)
                else tuple(deps))


class ScheduledTask(Frozen):
    """A task with its computed start/finish times."""

    __slots__ = ("task", "start", "finish")

    task: Task
    start: float
    finish: float

    def __init__(self, task: Task, start: float, finish: float) -> None:
        _assign(self, "task", task)
        _assign(self, "start", start)
        _assign(self, "finish", finish)


class Schedule(Frozen):
    """Result of scheduling a task DAG.

    Attributes:
        tasks: Scheduled tasks in submission order.
    """

    __slots__ = ("tasks",)

    tasks: Tuple[ScheduledTask, ...]

    def __init__(self, tasks: Tuple[ScheduledTask, ...]) -> None:
        self._set(tasks=tasks)

    @property
    def makespan(self) -> float:
        """Finish time of the last task (0 for an empty schedule)."""
        if not self.tasks:
            return 0.0
        return max(st.finish for st in self.tasks)

    def busy_time(self, resource: str) -> float:
        """Total execution time on one resource."""
        return sum(st.task.duration for st in self.tasks
                   if st.task.resource == resource)

    def resources(self) -> List[str]:
        seen: Dict[str, None] = {}
        for st in self.tasks:
            seen.setdefault(st.task.resource, None)
        return list(seen)

    def utilization(self, resource: str) -> float:
        """Busy fraction of a resource over the makespan."""
        span = self.makespan
        if span == 0:
            return 0.0
        return self.busy_time(resource) / span

    def intervals(self, resource: str) -> List[Tuple[float, float]]:
        """(start, finish) intervals of a resource's tasks, time-ordered."""
        ivals = [(st.start, st.finish) for st in self.tasks
                 if st.task.resource == resource]
        return sorted(ivals)


def run_schedule(tasks: Sequence[Task]) -> Schedule:
    """Schedule a task DAG and return exact start/finish times.

    Tasks on the same resource run in submission order (FIFO streams).
    Dependencies may reference any other task, forward or backward in
    submission order, as long as the graph is acyclic.

    Raises:
        ValueError: on duplicate IDs, unknown dependency IDs, or cycles.
    """
    tasks = tuple(tasks)
    index_of: Dict[str, int] = {}
    for index, task in enumerate(tasks):
        if task.id in index_of:
            raise ValueError(f"duplicate task id {task.id!r}")
        index_of[task.id] = index

    # Resolve dependencies to indices once, folding in the implicit FIFO
    # dependency on the previous task of the same resource.
    n = len(tasks)
    effective: List[List[int]] = []
    last_on_resource: Dict[str, int] = {}
    for index, task in enumerate(tasks):
        deps: List[int] = []
        for dep in task.deps:
            dep_index = index_of.get(dep)
            if dep_index is None:
                raise ValueError(
                    f"task {task.id!r} depends on unknown task {dep!r}"
                )
            deps.append(dep_index)
        prev = last_on_resource.get(task.resource)
        if prev is not None:
            deps.append(prev)
        effective.append(deps)
        last_on_resource[task.resource] = index

    # Kahn's algorithm; the deque keeps the ready order deterministic
    # (submission order among simultaneously-ready tasks), and start and
    # finish times are computed in the same pass.
    indegree = [len(deps) for deps in effective]
    dependents: List[List[int]] = [[] for _ in range(n)]
    for index, deps in enumerate(effective):
        for dep_index in deps:
            dependents[dep_index].append(index)
    ready = deque(index for index, degree in enumerate(indegree)
                  if degree == 0)
    start = [0.0] * n
    finish = [0.0] * n
    processed = 0
    while ready:
        index = ready.popleft()
        processed += 1
        begin = 0.0
        for dep_index in effective[index]:
            dep_finish = finish[dep_index]
            if dep_finish > begin:
                begin = dep_finish
        start[index] = begin
        finish[index] = begin + tasks[index].duration
        for successor in dependents[index]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                ready.append(successor)
    if processed != n:
        raise ValueError("task graph contains a cycle")

    scheduled = tuple(
        ScheduledTask(task=task, start=start[index], finish=finish[index])
        for index, task in enumerate(tasks)
    )
    return Schedule(tasks=scheduled)
