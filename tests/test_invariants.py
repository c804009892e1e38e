"""Tests for repro.core.invariants (the engine's checkable promises)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import BatchBreakdown, ConfigGrid, batch_execute
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.invariants import (
    InvariantError,
    Violation,
    assert_valid,
    batch_violations,
    breakdown_violations,
    execution_violations,
    schedule_violations,
)
from repro.models.trace import layer_trace
from repro.sim.breakdown import Breakdown
from repro.sim.engine import Schedule, ScheduledTask, Task
from repro.sim.executor import execute_trace


def _st(task_id, resource, duration, start, deps=()):
    task = Task(id=task_id, resource=resource, duration=duration,
                deps=tuple(deps))
    return ScheduledTask(task=task, start=start, finish=start + duration)


def _valid_schedule():
    return Schedule(tasks=(
        _st("a", "r1", 2.0, 0.0),
        _st("b", "r1", 1.0, 2.0, deps=("a",)),
        _st("c", "r2", 1.0, 2.0, deps=("a",)),
    ))


def _invariants(violations):
    return {violation.invariant for violation in violations}


class TestScheduleViolations:
    def test_valid_schedule_clean(self):
        assert schedule_violations(_valid_schedule()) == []

    def test_empty_schedule_clean(self):
        assert schedule_violations(Schedule(tasks=())) == []

    def test_duplicate_id(self):
        schedule = Schedule(tasks=(
            _st("a", "r1", 1.0, 0.0),
            _st("a", "r1", 1.0, 1.0),
        ))
        assert "unique-ids" in _invariants(schedule_violations(schedule))

    def test_unknown_dep(self):
        schedule = Schedule(tasks=(_st("a", "r1", 1.0, 0.0,
                                       deps=("ghost",)),))
        assert "known-deps" in _invariants(schedule_violations(schedule))

    def test_negative_start(self):
        schedule = Schedule(tasks=(_st("a", "r1", 1.0, -0.5),))
        found = _invariants(schedule_violations(schedule))
        assert "non-negative-time" in found

    def test_duration_inconsistency(self):
        task = Task(id="a", resource="r1", duration=1.0, deps=())
        schedule = Schedule(tasks=(
            ScheduledTask(task=task, start=0.0, finish=2.0),
        ))
        found = _invariants(schedule_violations(schedule))
        assert "duration-consistency" in found

    def test_fifo_overlap(self):
        schedule = Schedule(tasks=(
            _st("a", "r1", 2.0, 0.0),
            _st("b", "r1", 1.0, 1.0),  # starts while r1 busy until 2.0
        ))
        found = _invariants(schedule_violations(schedule))
        assert "fifo-no-overlap" in found

    def test_dep_ordering(self):
        schedule = Schedule(tasks=(
            _st("a", "r1", 2.0, 0.0),
            _st("b", "r2", 1.0, 1.0, deps=("a",)),  # before a finishes
        ))
        found = _invariants(schedule_violations(schedule))
        assert "dep-ordering" in found

    def test_lazy_start(self):
        schedule = Schedule(tasks=(
            _st("a", "r1", 1.0, 0.0),
            _st("b", "r1", 1.0, 5.0),  # idles r1 for 4 time units
        ))
        found = _invariants(schedule_violations(schedule))
        assert found == {"eager-start"}

    def test_engine_schedules_clean(self, cluster, small_model):
        for parallel in (ParallelConfig(tp=8, dp=4),
                         ParallelConfig(tp=8, dp=1),
                         ParallelConfig(tp=1, dp=1)):
            trace = layer_trace(small_model, parallel)
            result = execute_trace(trace, cluster)
            assert schedule_violations(result.schedule) == []


class TestBreakdownViolations:
    def test_valid_breakdown_clean(self):
        breakdown = Breakdown(compute_time=2.0, serialized_comm_time=1.0,
                              overlapped_comm_time=0.5, iteration_time=3.2)
        assert breakdown_violations(breakdown) == []

    def test_negative_component(self):
        # Breakdown itself rejects negatives at construction; the
        # invariant still guards duck-typed breakdowns (batch rows,
        # deserialized documents) that skip that validation.
        from types import SimpleNamespace

        breakdown = SimpleNamespace(
            compute_time=-1.0, serialized_comm_time=0.0,
            overlapped_comm_time=0.0, iteration_time=0.0)
        found = _invariants(breakdown_violations(breakdown))
        assert "non-negative-breakdown" in found

    def test_iteration_below_blocking_chain(self):
        breakdown = Breakdown(compute_time=2.0, serialized_comm_time=1.0,
                              overlapped_comm_time=0.0, iteration_time=2.5)
        found = _invariants(breakdown_violations(breakdown))
        assert "conservation-lower" in found

    def test_iteration_above_total_work(self):
        breakdown = Breakdown(compute_time=2.0, serialized_comm_time=1.0,
                              overlapped_comm_time=0.5, iteration_time=4.0)
        found = _invariants(breakdown_violations(breakdown))
        assert "conservation-upper" in found


class TestExecutionViolations:
    def test_engine_executions_clean(self, cluster, small_model):
        for parallel in (ParallelConfig(tp=8, dp=4),
                         ParallelConfig(tp=4, dp=1)):
            trace = layer_trace(small_model, parallel)
            assert execution_violations(
                execute_trace(trace, cluster)) == []

    def test_shared_network_execution_clean(self, cluster, small_model):
        from repro.sim.executor import op_duration, schedule_with_durations

        trace = layer_trace(small_model, ParallelConfig(tp=8, dp=4))
        durations = [op_duration(op, trace, cluster)
                     for op in trace.ops]
        result = schedule_with_durations(trace, durations,
                                         shared_network=True)
        assert execution_violations(result) == []

    def test_mismatched_breakdown_flagged(self, cluster, small_model):
        trace = layer_trace(small_model, ParallelConfig(tp=8, dp=4))
        result = execute_trace(trace, cluster)
        wrong = result.replace(breakdown=result.breakdown.replace(
            iteration_time=result.breakdown.iteration_time * 2.0))
        found = _invariants(execution_violations(wrong))
        assert "makespan-conservation" in found


class TestBatchViolations:
    def test_engine_batch_clean(self, cluster):
        model = ModelConfig(name="m", hidden=2048, seq_len=512, batch=1,
                            num_heads=16)
        grid = ConfigGrid.from_models([
            (model, ParallelConfig(tp=tp, dp=dp))
            for tp in (2, 8) for dp in (1, 4)
        ])
        assert batch_violations(batch_execute(grid, cluster)) == []

    def test_reports_first_offending_index(self, cluster):
        model = ModelConfig(name="m", hidden=2048, seq_len=512, batch=1,
                            num_heads=16)
        grid = ConfigGrid.from_models([
            (model, ParallelConfig(tp=tp, dp=1)) for tp in (2, 4, 8)
        ])
        batch = batch_execute(grid, cluster)
        iteration = np.array(batch.iteration_time, copy=True)
        iteration[1] = 0.0  # shorter than its own blocking chain
        broken = BatchBreakdown(
            compute_time=batch.compute_time,
            serialized_comm_time=batch.serialized_comm_time,
            overlapped_comm_time=batch.overlapped_comm_time,
            iteration_time=iteration,
        )
        violations = batch_violations(broken)
        assert any(v.invariant == "conservation-lower"
                   and v.subject == "config 1" for v in violations)


class TestAssertValid:
    def test_no_violations_is_silent(self):
        assert_valid([])

    def test_raises_with_catalogued_message(self):
        violations = [Violation("eager-start", "b", "starts late")]
        with pytest.raises(InvariantError) as excinfo:
            assert_valid(violations, context="unit test")
        assert "unit test" in str(excinfo.value)
        assert "[eager-start] b" in str(excinfo.value)
        assert excinfo.value.violations == tuple(violations)

    def test_is_a_value_error(self):
        with pytest.raises(ValueError):
            assert_valid([Violation("x", "y", "z")])
