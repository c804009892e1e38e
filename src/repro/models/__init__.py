"""Transformer model substrate: zoo, operator graphs, sharding, memory,
and the parallelism extensions (MoE, pipeline, ZeRO, sequence parallel,
offload, decode inference)."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "CollectiveKind": "repro.models.layers",
    "CommGroup": "repro.models.layers",
    "CommOp": "repro.models.graph",
    "ElementwiseOp": "repro.models.graph",
    "GemmOp": "repro.models.graph",
    "Phase": "repro.models.layers",
    "SubLayer": "repro.models.layers",
    "Trace": "repro.models.graph",
})
