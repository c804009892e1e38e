"""Simulated-testbed execution: scheduler, executor, profiler, breakdowns."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "Breakdown": "repro.sim.breakdown",
    "all_reduce_times": "repro.sim.vectorized",
    "closed_form_breakdown": "repro.sim.vectorized",
    "cluster_all_reduce_times": "repro.sim.vectorized",
    "elementwise_times": "repro.sim.vectorized",
    "gemm_times": "repro.sim.vectorized",
    "ExecutionResult": "repro.sim.executor",
    "KernelRecord": "repro.sim.profiler",
    "Profile": "repro.sim.profiler",
    "Schedule": "repro.sim.engine",
    "Task": "repro.sim.engine",
    "TimingModels": "repro.hardware.timing",
    "check_enabled": "repro.sim.checkflag",
    "differential_oracle": "repro.sim.checker",
    "execute_trace": "repro.sim.executor",
    "execute_with_decomposition": "repro.sim.overlap",
    "fault_selftest": "repro.sim.checker",
    "op_duration": "repro.sim.executor",
    "profile_trace": "repro.sim.profiler",
    "render_timeline": "repro.sim.timeline",
    "run_schedule": "repro.sim.engine",
    "schedule_with_durations": "repro.sim.executor",
    "seeded_faults": "repro.sim.checker",
    "validate_batch": "repro.sim.checker",
    "validate_execution": "repro.sim.checker",
    "validate_schedule": "repro.sim.checker",
})
