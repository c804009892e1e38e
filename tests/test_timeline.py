"""Tests for repro.sim.timeline (ASCII Gantt rendering)."""

from __future__ import annotations

import pytest

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.trace import layer_trace
from repro.sim.engine import Schedule, Task, run_schedule
from repro.sim.executor import execute_trace
from repro.sim.timeline import render_timeline


def _simple_schedule() -> Schedule:
    return run_schedule([
        Task("a", "compute", 1.0),
        Task("b", "comm", 1.0, deps=("a",)),
        Task("c", "compute", 2.0, deps=("b",)),
    ])


class TestRendering:
    def test_rejects_bad_width(self):
        with pytest.raises(ValueError, match="width"):
            render_timeline(_simple_schedule(), width=0)

    def test_empty_schedule(self):
        assert render_timeline(run_schedule([])) == "(empty schedule)"

    def test_one_line_per_resource_plus_footer(self):
        text = render_timeline(_simple_schedule(), width=40)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("compute")
        assert lines[1].startswith("comm")
        assert "ms" in lines[2]

    def test_busy_fraction_roughly_matches(self):
        text = render_timeline(_simple_schedule(), width=40)
        compute_bar = text.splitlines()[0].split(" ", 1)[1]
        busy = compute_bar.count("#")
        # compute is busy 3 of 4 seconds.
        assert busy == pytest.approx(30, abs=3)

    def test_gap_rendered_as_idle(self):
        text = render_timeline(_simple_schedule(), width=40)
        compute_bar = text.splitlines()[0].split(" ", 1)[1]
        assert "." in compute_bar.strip("#")

    def test_short_tasks_still_visible(self):
        schedule = run_schedule([
            Task("long", "compute", 1.0),
            Task("blip", "comm", 1e-9),
        ])
        text = render_timeline(schedule, width=40)
        comm_bar = text.splitlines()[1].split(" ", 1)[1]
        assert "#" in comm_bar

    def test_resource_filter(self):
        text = render_timeline(_simple_schedule(), width=20,
                               resources=["comm"])
        assert text.splitlines()[0].startswith("comm")
        assert len(text.splitlines()) == 2

    def test_renders_real_execution(self, cluster):
        model = ModelConfig(name="m", hidden=2048, seq_len=1024, batch=1,
                            num_heads=16)
        result = execute_trace(layer_trace(model, ParallelConfig(tp=4,
                                                                 dp=4)),
                               cluster)
        text = render_timeline(result.schedule)
        assert "compute" in text
        assert "comm-async" in text


class TestUtilizationSummary:
    def test_matches_schedule_utilization(self):
        schedule = _simple_schedule()
        assert schedule.utilization("compute") == pytest.approx(3.0 / 4.0)
        assert schedule.utilization("comm") == pytest.approx(1.0 / 4.0)
