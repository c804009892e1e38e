"""JSON export of traces, profiles, and breakdowns.

Lets operator traces and kernel profiles leave the library -- for
external plotting or diffing across calibrations.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.graph import CommOp, ElementwiseOp, GemmOp, Op, Trace
from repro.sim.breakdown import Breakdown
from repro.sim.profiler import Profile

__all__ = [
    "model_to_dict", "parallel_to_dict", "trace_to_dict",
    "profile_to_dict", "breakdown_to_dict", "save_json",
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


def parallel_to_dict(parallel: ParallelConfig) -> Dict[str, Any]:
    return {"tp": parallel.tp, "dp": parallel.dp, "pp": parallel.pp,
            "ep": parallel.ep}


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


def trace_to_dict(trace: Trace) -> Dict[str, Any]:
    return {
        "model": model_to_dict(trace.model),
        "parallel": parallel_to_dict(trace.parallel),
        "ops": [_op_to_dict(op) for op in trace.ops],
    }


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


def breakdown_to_dict(breakdown: Breakdown) -> Dict[str, Any]:
    return {
        "compute_time": breakdown.compute_time,
        "serialized_comm_time": breakdown.serialized_comm_time,
        "overlapped_comm_time": breakdown.overlapped_comm_time,
        "iteration_time": breakdown.iteration_time,
    }


def save_json(data: Dict[str, Any], path: Union[str, Path]) -> None:
    """Write a serialized dict as a JSON file."""
    Path(path).write_text(json.dumps(data, indent=2), encoding="utf-8")
