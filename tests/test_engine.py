"""Tests for repro.sim.engine (discrete-event scheduler)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Schedule, Task, run_schedule


def _ids(schedule: Schedule):
    return {st_.task.id: st_ for st_ in schedule.tasks}


class TestValidation:
    def test_rejects_duplicate_ids(self):
        tasks = [Task("a", "r", 1.0), Task("a", "r", 1.0)]
        with pytest.raises(ValueError, match="duplicate"):
            run_schedule(tasks)

    def test_rejects_unknown_dep(self):
        with pytest.raises(ValueError, match="unknown"):
            run_schedule([Task("a", "r", 1.0, deps=("ghost",))])

    def test_rejects_cycle(self):
        tasks = [Task("a", "r1", 1.0, deps=("b",)),
                 Task("b", "r2", 1.0, deps=("a",))]
        with pytest.raises(ValueError, match="cycle"):
            run_schedule(tasks)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError, match="negative"):
            Task("a", "r", -1.0)

    def test_zero_duration_allowed(self):
        schedule = run_schedule([Task("a", "r", 0.0)])
        assert schedule.makespan == 0.0


class TestSequencing:
    def test_empty_schedule(self):
        schedule = run_schedule([])
        assert schedule.makespan == 0.0
        assert schedule.resources() == []

    def test_fifo_on_one_resource(self):
        schedule = run_schedule([Task("a", "r", 1.0), Task("b", "r", 2.0),
                                 Task("c", "r", 3.0)])
        by_id = _ids(schedule)
        assert by_id["a"].start == 0.0
        assert by_id["b"].start == pytest.approx(1.0)
        assert by_id["c"].start == pytest.approx(3.0)
        assert schedule.makespan == pytest.approx(6.0)

    def test_independent_resources_run_in_parallel(self):
        schedule = run_schedule([Task("a", "r1", 5.0), Task("b", "r2", 3.0)])
        by_id = _ids(schedule)
        assert by_id["a"].start == by_id["b"].start == 0.0
        assert schedule.makespan == pytest.approx(5.0)

    def test_dependency_across_resources(self):
        schedule = run_schedule([
            Task("produce", "compute", 2.0),
            Task("send", "network", 1.0, deps=("produce",)),
        ])
        assert _ids(schedule)["send"].start == pytest.approx(2.0)

    def test_forward_dependency_reference(self):
        # A task may depend on one submitted later on another resource.
        schedule = run_schedule([
            Task("late", "r1", 1.0, deps=("early",)),
            Task("early", "r2", 2.0),
        ])
        assert _ids(schedule)["late"].start == pytest.approx(2.0)

    def test_diamond_dependency(self):
        schedule = run_schedule([
            Task("root", "a", 1.0),
            Task("left", "b", 2.0, deps=("root",)),
            Task("right", "c", 3.0, deps=("root",)),
            Task("join", "d", 1.0, deps=("left", "right")),
        ])
        assert _ids(schedule)["join"].start == pytest.approx(4.0)
        assert schedule.makespan == pytest.approx(5.0)

    def test_resource_busy_delays_ready_task(self):
        # "b" is dependency-free but queued behind "a" on the resource.
        schedule = run_schedule([
            Task("a", "r", 4.0),
            Task("b", "r", 1.0),
        ])
        assert _ids(schedule)["b"].start == pytest.approx(4.0)


class TestAccounting:
    def test_busy_time(self):
        schedule = run_schedule([Task("a", "r", 1.5), Task("b", "r", 2.5),
                                 Task("c", "other", 1.0)])
        assert schedule.busy_time("r") == pytest.approx(4.0)
        assert schedule.busy_time("other") == pytest.approx(1.0)
        assert schedule.busy_time("missing") == 0.0

    def test_resource_finish(self):
        schedule = run_schedule([Task("a", "r", 1.0),
                                 Task("b", "s", 2.0, deps=("a",))])
        by_id = _ids(schedule)
        assert by_id["a"].finish == pytest.approx(1.0)
        assert by_id["b"].finish == pytest.approx(3.0)
        assert schedule.makespan == pytest.approx(3.0)

    def test_utilization(self):
        schedule = run_schedule([Task("a", "r", 2.0),
                                 Task("b", "s", 4.0)])
        assert schedule.utilization("r") == pytest.approx(0.5)
        assert schedule.utilization("s") == pytest.approx(1.0)

    def test_intervals_sorted(self):
        schedule = run_schedule([Task("a", "r", 1.0), Task("b", "r", 1.0)])
        assert schedule.intervals("r") == [(0.0, 1.0), (1.0, 2.0)]

    def test_resources_in_first_seen_order(self):
        schedule = run_schedule([Task("a", "z", 1.0), Task("b", "a", 1.0)])
        assert schedule.resources() == ["z", "a"]


@st.composite
def _task_dags(draw):
    """Random DAGs: each task may depend on earlier tasks only."""
    count = draw(st.integers(min_value=1, max_value=25))
    resources = ["compute", "comm", "io"]
    tasks = []
    for index in range(count):
        deps = ()
        if index:
            deps = tuple(
                f"t{d}" for d in draw(
                    st.lists(st.integers(min_value=0, max_value=index - 1),
                             max_size=3, unique=True)
                )
            )
        tasks.append(Task(
            id=f"t{index}",
            resource=draw(st.sampled_from(resources)),
            duration=draw(st.floats(min_value=0.0, max_value=10.0)),
            deps=deps,
        ))
    return tasks


class TestProperties:
    @given(_task_dags())
    @settings(max_examples=60)
    def test_dependencies_respected(self, tasks):
        schedule = run_schedule(tasks)
        by_id = _ids(schedule)
        for scheduled in schedule.tasks:
            for dep in scheduled.task.deps:
                assert scheduled.start >= by_id[dep].finish - 1e-12

    @given(_task_dags())
    @settings(max_examples=60)
    def test_no_overlap_within_resource(self, tasks):
        schedule = run_schedule(tasks)
        for resource in schedule.resources():
            intervals = schedule.intervals(resource)
            for (s1, f1), (s2, _) in zip(intervals, intervals[1:]):
                assert s2 >= f1 - 1e-12

    @given(_task_dags())
    @settings(max_examples=60)
    def test_makespan_bounds(self, tasks):
        schedule = run_schedule(tasks)
        total = sum(t.duration for t in tasks)
        longest = max((t.duration for t in tasks), default=0.0)
        assert longest - 1e-12 <= schedule.makespan <= total + 1e-12
