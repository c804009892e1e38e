"""Transformer model substrate: zoo, operator graphs, sharding, memory,
and the parallelism extensions (MoE, pipeline, ZeRO, sequence parallel,
offload, decode inference)."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "CollectiveKind": "repro.models.graph",
    "CommGroup": "repro.models.graph",
    "CommOp": "repro.models.graph",
    "ElementwiseOp": "repro.models.graph",
    "GemmOp": "repro.models.graph",
    "Phase": "repro.models.graph",
    "SubLayer": "repro.models.graph",
    "Trace": "repro.models.graph",
})
