"""JSON serialization of traces, profiles, and breakdowns.

Lets operator traces and kernel profiles leave the library -- for
external plotting, diffing across calibrations, or replaying a trace
against a different timing model -- and round-trips them back into the
typed objects.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.hyperparams import (
    LayerType,
    ModelConfig,
    ParallelConfig,
    Precision,
)
from repro.models.graph import (
    CollectiveKind,
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
    GemmShape,
    Op,
    Phase,
    SubLayer,
    Trace,
)
from repro.sim.breakdown import Breakdown
from repro.sim.profiler import KernelRecord, Profile

__all__ = [
    "model_to_dict", "model_from_dict",
    "parallel_to_dict", "parallel_from_dict",
    "trace_to_dict", "trace_from_dict",
    "profile_to_dict", "profile_from_dict",
    "breakdown_to_dict", "breakdown_from_dict",
    "suite_to_dict", "suite_from_dict",
    "save_json", "load_json",
]


def model_to_dict(model: ModelConfig) -> Dict[str, Any]:
    return {
        "name": model.name,
        "hidden": model.hidden,
        "seq_len": model.seq_len,
        "batch": model.batch,
        "num_layers": model.num_layers,
        "num_heads": model.num_heads,
        "ffn_dim": model.ffn_dim,
        "layer_type": model.layer_type.value,
        "precision": model.precision.value,
        "year": model.year,
    }


def model_from_dict(data: Dict[str, Any]) -> ModelConfig:
    return ModelConfig(
        name=data["name"],
        hidden=data["hidden"],
        seq_len=data["seq_len"],
        batch=data["batch"],
        num_layers=data["num_layers"],
        num_heads=data["num_heads"],
        ffn_dim=data["ffn_dim"],
        layer_type=LayerType(data["layer_type"]),
        precision=Precision(data["precision"]),
        year=data.get("year"),
    )


def parallel_to_dict(parallel: ParallelConfig) -> Dict[str, Any]:
    return {"tp": parallel.tp, "dp": parallel.dp, "pp": parallel.pp,
            "ep": parallel.ep}


def parallel_from_dict(data: Dict[str, Any]) -> ParallelConfig:
    return ParallelConfig(tp=data["tp"], dp=data["dp"], pp=data["pp"],
                          ep=data["ep"])


def _op_to_dict(op: Op) -> Dict[str, Any]:
    common = {"name": op.name, "phase": op.phase.value,
              "sublayer": op.sublayer.value, "layer": op.layer}
    if isinstance(op, GemmOp):
        return {
            "type": "gemm",
            "m": op.shape.m, "n": op.shape.n, "k": op.shape.k,
            "batch": op.shape.batch,
            "has_weights": op.has_weights,
            **common,
        }
    if isinstance(op, ElementwiseOp):
        return {
            "type": "elementwise",
            "elements": op.elements, "rw_factor": op.rw_factor,
            "kind": op.kind,
            **common,
        }
    if isinstance(op, CommOp):
        return {
            "type": "comm",
            "collective": op.collective.value, "nbytes": op.nbytes,
            "group": op.group.value, "overlappable": op.overlappable,
            **common,
        }
    raise TypeError(f"unknown op type: {type(op)!r}")


def _op_from_dict(data: Dict[str, Any]) -> Op:
    common = {
        "name": data["name"],
        "phase": Phase(data["phase"]),
        "sublayer": SubLayer(data["sublayer"]),
        "layer": data["layer"],
    }
    kind = data["type"]
    if kind == "gemm":
        return GemmOp(
            shape=GemmShape(m=data["m"], n=data["n"], k=data["k"],
                            batch=data["batch"]),
            has_weights=data["has_weights"],
            **common,
        )
    if kind == "elementwise":
        return ElementwiseOp(
            elements=data["elements"], rw_factor=data["rw_factor"],
            kind=data["kind"],
            **common,
        )
    if kind == "comm":
        return CommOp(
            collective=CollectiveKind(data["collective"]),
            nbytes=data["nbytes"],
            group=CommGroup(data["group"]),
            overlappable=data["overlappable"],
            **common,
        )
    raise ValueError(f"unknown op record type {kind!r}")


def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    return {
        "model": model_to_dict(trace.model),
        "parallel": parallel_to_dict(trace.parallel),
        "ops": [_op_to_dict(op) for op in trace.ops],
    }


def trace_from_dict(data: Dict[str, Any]) -> Trace:
    return Trace(
        model=model_from_dict(data["model"]),
        parallel=parallel_from_dict(data["parallel"]),
        ops=tuple(_op_from_dict(entry) for entry in data["ops"]),
    )


def profile_to_dict(profile: Profile) -> Dict[str, Any]:
    return {
        "records": [
            {
                "name": record.name,
                "category": record.category,
                "duration": record.duration,
                "meta": dict(record.meta),
                "layer": record.layer,
                "phase": record.phase,
            }
            for record in profile.records
        ]
    }


def profile_from_dict(data: Dict[str, Any]) -> Profile:
    return Profile(records=tuple(
        KernelRecord(
            name=entry["name"], category=entry["category"],
            duration=entry["duration"], meta=entry["meta"],
            layer=entry["layer"], phase=entry["phase"],
        )
        for entry in data["records"]
    ))


def breakdown_to_dict(breakdown: Breakdown) -> Dict[str, Any]:
    return {
        "compute_time": breakdown.compute_time,
        "serialized_comm_time": breakdown.serialized_comm_time,
        "overlapped_comm_time": breakdown.overlapped_comm_time,
        "iteration_time": breakdown.iteration_time,
    }


def breakdown_from_dict(data: Dict[str, Any]) -> Breakdown:
    return Breakdown(
        compute_time=data["compute_time"],
        serialized_comm_time=data["serialized_comm_time"],
        overlapped_comm_time=data["overlapped_comm_time"],
        iteration_time=data["iteration_time"],
    )


def suite_to_dict(suite) -> Dict[str, Any]:
    """Serialize a fitted :class:`~repro.core.projection.OperatorModelSuite`.

    Persisting the suite realizes the paper's workflow end to end: profile
    the baseline once (on the testbed you have), save the fitted operator
    models, and project future configurations forever after without
    re-profiling.
    """
    return {
        "baseline_model": model_to_dict(suite.baseline_model),
        "compute_reference": {
            name: {"op": _op_to_dict(op), "time": time}
            for name, (op, time) in suite.compute_reference.items()
        },
        "collective_references": {
            kind.value: {
                "nbytes": ref.nbytes,
                "group_size": ref.group_size,
                "time": ref.time,
            }
            for kind, ref in suite.collective_references.items()
        },
        "baseline_cost": suite.baseline_cost,
    }


def suite_from_dict(data: Dict[str, Any]):
    """Rebuild an operator-model suite serialized by :func:`suite_to_dict`."""
    from repro.core.projection import (
        CollectiveReference,
        OperatorModelSuite,
    )

    compute_reference = {
        name: (_op_from_dict(entry["op"]), entry["time"])
        for name, entry in data["compute_reference"].items()
    }
    collective_references = {
        CollectiveKind(kind): CollectiveReference(
            collective=CollectiveKind(kind),
            nbytes=entry["nbytes"],
            group_size=entry["group_size"],
            time=entry["time"],
        )
        for kind, entry in data["collective_references"].items()
    }
    return OperatorModelSuite(
        baseline_model=model_from_dict(data["baseline_model"]),
        compute_reference=compute_reference,
        collective_references=collective_references,
        baseline_cost=data["baseline_cost"],
    )


def save_json(data: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a serialized dict as a JSON file."""
    Path(path).write_text(json.dumps(data, indent=2), encoding="utf-8")


def load_json(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a JSON file back into a dict.

    Raises:
        FileNotFoundError, json.JSONDecodeError: per the standard library.
    """
    return json.loads(Path(path).read_text(encoding="utf-8"))
