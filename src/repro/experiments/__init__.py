"""Per-table/figure experiment harness (see DESIGN.md's experiment index)."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "ExperimentResult": "repro.experiments.base",
    "RunMeta": "repro.experiments.base",
})
