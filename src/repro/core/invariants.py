"""Invariants the simulation engines promise, as checkable predicates.

The discrete-event scheduler (:mod:`repro.sim.engine`), the trace
executor (:mod:`repro.sim.executor`), and the vectorized batch engine
(:mod:`repro.core.batch`) all guarantee the same structural properties.
This module states them once, as pure functions from schedules and
breakdowns to lists of :class:`Violation` objects, so any experiment can
self-verify (``Session(check=True)``, CLI ``--check``, ``REPRO_CHECK=1``)
and the differential oracle (:mod:`repro.sim.checker`) can explain *what*
broke instead of failing a bare assert.

Schedule invariants (:func:`schedule_violations`):

* ``unique-ids`` -- task ids are unique within a schedule;
* ``known-deps`` -- every dependency references a task in the schedule;
* ``non-negative-time`` -- no negative start, finish, or duration;
* ``duration-consistency`` -- ``finish == start + duration``, exactly;
* ``fifo-no-overlap`` -- per-resource FIFO: tasks on one resource run in
  submission order without interval overlap (``prev.finish <= next.start``);
* ``dep-ordering`` -- no task starts before a dependency finishes;
* ``eager-start`` -- every task starts *exactly* at
  ``max(0, dep finishes, resource free time)``: streams are
  work-conserving, so a later start means the engine lost time.

Breakdown invariants (:func:`breakdown_violations`, applied per entry by
:func:`batch_violations` for array breakdowns):

* ``non-negative-breakdown`` -- all four components are ``>= 0``;
* ``conservation-lower`` -- ``iteration >= compute + serialized``: the
  blocking chain runs gap-free, so the makespan is at least its length;
* ``conservation-upper`` -- ``iteration <= compute + serialized +
  overlapped``: exposed communication never exceeds the overlappable
  communication issued (equivalently ``exposed <= overlapped``).

Execution invariants (:func:`execution_violations`) add the
schedule-to-breakdown conservation laws:

* ``makespan-conservation`` -- ``breakdown.iteration_time`` equals the
  schedule makespan;
* ``busy-conservation`` -- compute busy-time equals
  ``breakdown.compute_time`` and total communication busy-time equals
  ``serialized + overlapped`` (stream-assignment agnostic, so shared
  network fabrics validate too);
* ``makespan-dominates-busy`` -- the makespan is at least each stream's
  busy time (no stream can be busy longer than the iteration ran).

Exact schedule invariants are checked bit-for-bit (the validator mirrors
the engine's own float arithmetic, and ``max`` is associativity-safe);
cross-checks whose reference sums in a different order than the engine
use a relative tolerance of :data:`RELATIVE_TOLERANCE`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.sim.breakdown import Breakdown
from repro.sim.engine import Schedule

#: Render this module's full invariant catalogue into docs/API.md.
__apidoc_full__ = True

__all__ = [
    "RELATIVE_TOLERANCE",
    "Violation",
    "InvariantError",
    "schedule_violations",
    "breakdown_violations",
    "execution_violations",
    "batch_violations",
    "assert_valid",
]

#: Relative tolerance for cross-checks that re-sum durations in a
#: different association order than the engine (conservation laws).
#: Same-order checks are exact.
RELATIVE_TOLERANCE = 1e-9


class Violation(Frozen):
    """One violated invariant.

    Attributes:
        invariant: Invariant id (e.g. ``"fifo-no-overlap"``).
        subject: What violated it (task id, resource, field, or index).
        detail: Human-readable explanation with the offending values.
    """

    __slots__ = ("invariant", "subject", "detail")

    invariant: str
    subject: str
    detail: str

    def __init__(self, invariant: str, subject: str, detail: str) -> None:
        self._set(invariant=invariant, subject=subject, detail=detail)

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.subject}: {self.detail}"


class InvariantError(ValueError):
    """Raised by :func:`assert_valid` when any invariant is violated."""

    def __init__(self, violations: Sequence[Violation],
                 context: str = "schedule") -> None:
        self.violations: Tuple[Violation, ...] = tuple(violations)
        lines = [f"{len(self.violations)} invariant violation(s) in "
                 f"{context}:"]
        lines.extend(f"  {violation}" for violation in self.violations)
        super().__init__("\n".join(lines))


def _close(lhs: float, rhs: float) -> bool:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) <= RELATIVE_TOLERANCE * scale


def _leq(lhs: float, rhs: float) -> bool:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return lhs <= rhs + RELATIVE_TOLERANCE * scale


def schedule_violations(schedule: Schedule) -> List[Violation]:
    """Every schedule-invariant violation, in task-submission order.

    An empty list means the schedule satisfies all stream invariants the
    engine promises (see the module docstring for the full catalogue).
    """
    violations: List[Violation] = []
    finish_of: Dict[str, float] = {}
    seen: Dict[str, int] = {}
    resource_free: Dict[str, float] = {}
    for index, st in enumerate(schedule.tasks):
        task = st.task
        if task.id in seen:
            violations.append(Violation(
                "unique-ids", task.id,
                f"duplicate of submission index {seen[task.id]}",
            ))
        seen.setdefault(task.id, index)
        if task.duration < 0 or st.start < 0 or st.finish < 0:
            violations.append(Violation(
                "non-negative-time", task.id,
                f"start={st.start!r} finish={st.finish!r} "
                f"duration={task.duration!r}",
            ))
        if st.finish != st.start + task.duration:
            violations.append(Violation(
                "duration-consistency", task.id,
                f"finish {st.finish!r} != start {st.start!r} + "
                f"duration {task.duration!r}",
            ))
        # The engine's own start rule: max over 0, explicit dep finishes,
        # and the previous task on the same resource (FIFO stream).
        earliest = 0.0
        for dep in task.deps:
            dep_finish = finish_of.get(dep)
            if dep_finish is None:
                violations.append(Violation(
                    "known-deps", task.id,
                    f"depends on {dep!r}, which is not scheduled earlier",
                ))
                continue
            if st.start < dep_finish:
                violations.append(Violation(
                    "dep-ordering", task.id,
                    f"starts at {st.start!r} before dependency {dep!r} "
                    f"finishes at {dep_finish!r}",
                ))
            earliest = max(earliest, dep_finish)
        free = resource_free.get(task.resource, 0.0)
        if st.start < free:
            violations.append(Violation(
                "fifo-no-overlap", task.resource,
                f"task {task.id!r} starts at {st.start!r} while the "
                f"resource is busy until {free!r}",
            ))
        earliest = max(earliest, free)
        if st.start != earliest:
            violations.append(Violation(
                "eager-start", task.id,
                f"starts at {st.start!r}, but dependencies and the "
                f"resource allow {earliest!r}",
            ))
        finish_of[task.id] = st.finish
        resource_free[task.resource] = max(free, st.finish)
    return violations


def breakdown_violations(breakdown: Breakdown,
                         subject: str = "breakdown") -> List[Violation]:
    """Conservation-law violations of one scalar :class:`Breakdown`."""
    violations: List[Violation] = []
    components = {
        "compute_time": breakdown.compute_time,
        "serialized_comm_time": breakdown.serialized_comm_time,
        "overlapped_comm_time": breakdown.overlapped_comm_time,
        "iteration_time": breakdown.iteration_time,
    }
    for name, value in components.items():
        if value < 0:
            violations.append(Violation(
                "non-negative-breakdown", subject,
                f"{name} is negative: {value!r}",
            ))
    blocking = breakdown.compute_time + breakdown.serialized_comm_time
    if not _leq(blocking, breakdown.iteration_time):
        violations.append(Violation(
            "conservation-lower", subject,
            f"iteration {breakdown.iteration_time!r} is shorter than the "
            f"gap-free blocking chain compute + serialized = {blocking!r}",
        ))
    ceiling = blocking + breakdown.overlapped_comm_time
    if not _leq(breakdown.iteration_time, ceiling):
        violations.append(Violation(
            "conservation-upper", subject,
            f"iteration {breakdown.iteration_time!r} exceeds compute + "
            f"serialized + overlapped = {ceiling!r} (exposed comm larger "
            f"than overlappable comm issued)",
        ))
    return violations


def execution_violations(result) -> List[Violation]:
    """Violations of an :class:`~repro.sim.executor.ExecutionResult`.

    Checks the schedule invariants, the breakdown conservation laws, and
    the schedule-to-breakdown cross-checks that tie them together.
    """
    schedule: Schedule = result.schedule
    breakdown: Breakdown = result.breakdown
    violations = schedule_violations(schedule)
    violations.extend(breakdown_violations(breakdown))
    makespan = schedule.makespan
    if not _close(makespan, breakdown.iteration_time):
        violations.append(Violation(
            "makespan-conservation", "iteration_time",
            f"breakdown reports {breakdown.iteration_time!r}, schedule "
            f"makespan is {makespan!r}",
        ))
    from repro.sim.executor import COMPUTE_STREAM

    compute_busy = 0.0
    comm_busy = 0.0
    for st in schedule.tasks:
        if st.task.resource == COMPUTE_STREAM:
            compute_busy += st.task.duration
        else:
            comm_busy += st.task.duration
    if not _close(compute_busy, breakdown.compute_time):
        violations.append(Violation(
            "busy-conservation", "compute_time",
            f"breakdown reports {breakdown.compute_time!r}, compute-stream "
            f"busy time is {compute_busy!r}",
        ))
    comm_reported = (breakdown.serialized_comm_time
                     + breakdown.overlapped_comm_time)
    if not _close(comm_busy, comm_reported):
        violations.append(Violation(
            "busy-conservation", "comm_time",
            f"breakdown reports serialized + overlapped = "
            f"{comm_reported!r}, communication busy time is {comm_busy!r}",
        ))
    for resource in schedule.resources():
        busy = schedule.busy_time(resource)
        if not _leq(busy, makespan):
            violations.append(Violation(
                "makespan-dominates-busy", resource,
                f"stream busy for {busy!r} but the makespan is only "
                f"{makespan!r}",
            ))
    return violations


def batch_violations(batch) -> List[Violation]:
    """Conservation-law violations of a batched breakdown.

    Accepts a :class:`~repro.core.batch.BatchBreakdown` (or anything with
    the four parallel component arrays) and reports, per invariant, the
    first offending grid index.
    """
    import numpy as np

    violations: List[Violation] = []
    compute = np.asarray(batch.compute_time, dtype=np.float64)
    serialized = np.asarray(batch.serialized_comm_time, dtype=np.float64)
    overlapped = np.asarray(batch.overlapped_comm_time, dtype=np.float64)
    iteration = np.asarray(batch.iteration_time, dtype=np.float64)

    def first_index(mask: np.ndarray) -> Optional[int]:
        hits = np.flatnonzero(mask)
        return int(hits[0]) if hits.size else None

    for name, array in (("compute_time", compute),
                        ("serialized_comm_time", serialized),
                        ("overlapped_comm_time", overlapped),
                        ("iteration_time", iteration)):
        index = first_index(array < 0)
        if index is not None:
            violations.append(Violation(
                "non-negative-breakdown", f"config {index}",
                f"{name} is negative: {array[index]!r}",
            ))
    blocking = compute + serialized
    scale = np.maximum(np.maximum(np.abs(blocking), np.abs(iteration)), 1.0)
    index = first_index(iteration < blocking - RELATIVE_TOLERANCE * scale)
    if index is not None:
        violations.append(Violation(
            "conservation-lower", f"config {index}",
            f"iteration {iteration[index]!r} is shorter than compute + "
            f"serialized = {blocking[index]!r}",
        ))
    ceiling = blocking + overlapped
    scale = np.maximum(np.maximum(np.abs(ceiling), np.abs(iteration)), 1.0)
    index = first_index(iteration > ceiling + RELATIVE_TOLERANCE * scale)
    if index is not None:
        violations.append(Violation(
            "conservation-upper", f"config {index}",
            f"iteration {iteration[index]!r} exceeds compute + serialized "
            f"+ overlapped = {ceiling[index]!r}",
        ))
    return violations


def assert_valid(violations: Sequence[Violation],
                 context: str = "schedule") -> None:
    """Raise :class:`InvariantError` if ``violations`` is non-empty."""
    if violations:
        raise InvariantError(violations, context=context)
