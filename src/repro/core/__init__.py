"""Core analysis: the paper's primary contribution.

Algorithmic Comp-vs-Comm analysis (Section 3), the empirical projection
strategy (Section 4.2), hardware-evolution scenarios (Section 4.3.6), and
the sweep/reporting machinery that regenerates the paper's figures.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "BatchBreakdown": "repro.core.batch",
    "ConfigGrid": "repro.core.batch",
    "HardwareScenario": "repro.core.evolution",
    "InvariantError": "repro.core.invariants",
    "LayerType": "repro.core.hyperparams",
    "ModelConfig": "repro.core.hyperparams",
    "PAPER_SCENARIOS": "repro.core.evolution",
    "ParallelConfig": "repro.core.hyperparams",
    "Precision": "repro.core.hyperparams",
    "Violation": "repro.core.invariants",
    "amdahl_edge": "repro.core.edge",
    "batch_execute": "repro.core.batch",
    "batch_project": "repro.core.batch",
    "batch_violations": "repro.core.invariants",
    "breakdown_violations": "repro.core.invariants",
    "enumerate_plans": "repro.core.autotune",
    "execution_violations": "repro.core.invariants",
    "fit_operator_models": "repro.core.projection",
    "schedule_violations": "repro.core.invariants",
    "overlap_roi_timing": "repro.core.roi",
    "required_tp": "repro.core.scaling",
    "slack_advantage": "repro.core.slack",
    "validate_model_parallel": "repro.core.hyperparams",
})
