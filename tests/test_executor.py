"""Tests for repro.sim.executor (two-stream trace execution)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.graph import CommOp, Phase
from repro.models.trace import layer_trace, training_trace
from repro.sim.executor import (
    COMM_ASYNC_STREAM,
    COMM_STREAM,
    COMPUTE_STREAM,
    DEFAULT_TIMING,
    execute_trace,
    op_duration,
    schedule_with_durations,
)


def _model(**kw) -> ModelConfig:
    params = dict(name="m", hidden=1024, seq_len=512, batch=2,
                  num_layers=2, num_heads=16)
    params.update(kw)
    return ModelConfig(**params)


TP4_DP2 = ParallelConfig(tp=4, dp=2)


class TestOpDurations:
    def test_all_ops_have_positive_duration(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        for op in trace.ops:
            assert op_duration(op, trace, cluster) > 0

    def test_comm_ops_free_for_unit_groups(self, cluster):
        trace = layer_trace(_model(), ParallelConfig(tp=4, dp=1))
        # Rebuild a DP comm op against a dp=1 trace: group size 1 -> free.
        dp_trace = layer_trace(_model(), TP4_DP2)
        grad_ar = next(op for op in dp_trace.ops
                       if isinstance(op, CommOp) and op.overlappable)
        assert op_duration(grad_ar, trace, cluster) == 0.0

    def test_overlapped_comm_pays_interference(self, cluster):
        slowed = cluster.with_interference(4.0)
        trace = layer_trace(_model(), TP4_DP2)
        grad_ar = next(op for op in trace.ops
                       if isinstance(op, CommOp) and op.overlappable)
        assert op_duration(grad_ar, trace, slowed) == pytest.approx(
            4.0 * op_duration(grad_ar, trace, cluster)
        )


class TestStreamSemantics:
    def test_streams_assignment(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        result = execute_trace(trace, cluster)
        by_resource = {}
        for scheduled in result.schedule.tasks:
            by_resource.setdefault(scheduled.task.resource, 0)
            by_resource[scheduled.task.resource] += 1
        assert by_resource[COMPUTE_STREAM] == len(trace.gemms()) + len(
            trace.elementwise()
        )
        assert by_resource[COMM_STREAM] == len(
            [op for op in trace.comms() if not op.overlappable])
        assert by_resource[COMM_ASYNC_STREAM] == len(
            trace.overlappable_comms()
        )

    def test_serialized_comm_blocks_compute(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        result = execute_trace(trace, cluster)
        schedule = result.schedule
        # The compute+serialized chain runs gap-free: its total busy time
        # equals the finish time of its last task.
        chain_busy = schedule.busy_time(COMPUTE_STREAM) + schedule.busy_time(
            COMM_STREAM
        )
        chain_finish = max(st.finish for st in schedule.tasks
                           if st.task.resource in (COMPUTE_STREAM,
                                                   COMM_STREAM))
        assert chain_finish == pytest.approx(chain_busy)

    def test_overlapped_comm_runs_concurrently(self, cluster):
        trace = training_trace(_model(num_layers=4), TP4_DP2)
        result = execute_trace(trace, cluster)
        breakdown = result.breakdown
        # DP gradient all-reduces overlap backprop: the iteration must be
        # shorter than fully serializing everything.
        serial_total = (breakdown.compute_time
                        + breakdown.serialized_comm_time
                        + breakdown.overlapped_comm_time)
        assert breakdown.iteration_time < serial_total

    def test_makespan_at_least_blocking_chain(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        breakdown = execute_trace(trace, cluster).breakdown
        assert breakdown.iteration_time >= (
            breakdown.compute_time + breakdown.serialized_comm_time - 1e-12
        )

    def test_exposed_comm_only_from_overlappable(self, cluster):
        trace = layer_trace(_model(), ParallelConfig(tp=4, dp=1))
        breakdown = execute_trace(trace, cluster).breakdown
        assert breakdown.overlapped_comm_time == 0.0
        assert breakdown.exposed_comm_time == pytest.approx(0.0)

    def test_deterministic(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        first = execute_trace(trace, cluster).breakdown
        second = execute_trace(trace, cluster).breakdown
        assert first == second


class TestSharedNetwork:
    def test_shared_never_faster(self, cluster):
        trace = training_trace(_model(num_layers=3), TP4_DP2)
        independent = execute_trace(trace, cluster).breakdown
        shared = execute_trace(trace, cluster,
                               shared_network=True).breakdown
        assert shared.iteration_time >= independent.iteration_time - 1e-12

    def test_component_times_preserved(self, cluster):
        # Sharing the wire changes scheduling, not per-op durations.
        trace = training_trace(_model(num_layers=3), TP4_DP2)
        independent = execute_trace(trace, cluster).breakdown
        shared = execute_trace(trace, cluster,
                               shared_network=True).breakdown
        assert shared.compute_time == pytest.approx(
            independent.compute_time
        )
        assert shared.serialized_comm_time == pytest.approx(
            independent.serialized_comm_time
        )
        assert shared.overlapped_comm_time == pytest.approx(
            independent.overlapped_comm_time
        )

    def test_contention_visible_when_traffic_collides(self, cluster):
        # With DP all-reduces in flight, queued TP all-reduces extend the
        # critical path: exposed comm grows under the shared wire.
        trace = training_trace(_model(num_layers=4), ParallelConfig(tp=4,
                                                                    dp=8))
        independent = execute_trace(trace, cluster).breakdown
        shared = execute_trace(trace, cluster,
                               shared_network=True).breakdown
        assert shared.exposed_comm_time >= independent.exposed_comm_time

    def test_no_async_traffic_means_identical_schedules(self, cluster):
        trace = training_trace(_model(), ParallelConfig(tp=4, dp=1))
        independent = execute_trace(trace, cluster).breakdown
        shared = execute_trace(trace, cluster,
                               shared_network=True).breakdown
        assert shared == independent


class TestScheduleWithDurations:
    def test_rejects_length_mismatch(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        with pytest.raises(ValueError, match="durations"):
            schedule_with_durations(trace, [1.0])

    def test_matches_execute_trace(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        durations = [op_duration(op, trace, cluster) for op in trace.ops]
        via_durations = schedule_with_durations(trace, durations).breakdown
        via_execute = execute_trace(trace, cluster).breakdown
        assert via_durations == via_execute

    def test_custom_durations_respected(self, cluster):
        trace = layer_trace(_model(), TP4_DP2)
        durations = [1.0] * len(trace.ops)
        result = schedule_with_durations(trace, durations)
        compute_ops = len(trace.gemms()) + len(trace.elementwise())
        assert result.breakdown.compute_time == pytest.approx(compute_ops)
