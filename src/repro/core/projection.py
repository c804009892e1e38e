"""Operator-level runtime models and projection (Section 4.2.2, Step 2b).

The paper's central cost-saving device: instead of executing hundreds of
Transformer configurations, profile **one** baseline (BERT) iteration at
operator granularity, fit per-operator scaling laws, and *project* every
other configuration's operator runtimes:

* GEMM runtime scales **linearly with SL and B** and **quadratically with
  H** -- equivalently, linearly with the GEMM's FLOPs;
* LayerNorm (and other element-wise) runtime scales **linearly with both
  SL and H** -- linearly with element count;
* all-reduce runtime scales **linearly with the reduced data size**, with
  the standard ``(N-1)/N`` ring adjustment across group sizes.

Because real (simulated) kernels deviate from these ideal laws --
efficiency improves with size, kernels are tuned per shape -- projections
carry error; the paper measures ~15% for GEMMs, ~7% geomean for
LayerNorm, ~11% geomean for all-reduce (Figure 15), which
:func:`projection_errors` reproduces against simulator ground truth.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware import collectives
from repro.hardware.cluster import ClusterSpec
from repro.models.graph import (
    CollectiveKind,
    CommOp,
    ElementwiseOp,
    GemmOp,
    Op,
    Trace,
)
from repro.models.trace import layer_trace
from repro.sim.executor import (
    DEFAULT_TIMING,
    ExecutionResult,
    TimingModels,
    op_duration,
    schedule_with_durations,
)
from repro.sim.profiler import profile_trace

__all__ = [
    "CollectiveReference",
    "OperatorModelSuite",
    "fit_operator_models",
    "DEFAULT_BASELINE",
    "ErrorStats",
    "error_stats",
    "projection_errors",
]

#: The paper's baseline: BERT-large geometry profiled on one device
#: (Section 4.3.3).  A single-layer trace suffices -- every layer repeats
#: the same operators.
DEFAULT_BASELINE = ModelConfig(
    name="BERT-baseline",
    hidden=1024,
    seq_len=512,
    batch=4,
    num_layers=1,
    num_heads=16,
)


def _ring_factor(n_devices: int) -> float:
    return (n_devices - 1) / n_devices


class CollectiveReference(Frozen):
    """A measured collective data point to project from.

    The paper cannot profile collectives from the single-GPU baseline
    iteration, so it measures them separately on the testbed while
    sweeping data size (Figure 15(c)).  One reference point plus the
    linear-in-bytes law and the ring ``(N-1)/N`` adjustment projects any
    (size, group) combination.
    """

    __slots__ = ("collective", "nbytes", "group_size", "time")

    collective: CollectiveKind
    nbytes: int
    group_size: int
    time: float

    def __init__(self, collective: CollectiveKind, nbytes: int,
                 group_size: int, time: float) -> None:
        self._set(collective=collective, nbytes=nbytes, group_size=group_size,
                  time=time)
        if self.nbytes <= 0 or self.group_size < 2 or self.time <= 0:
            raise ValueError("reference needs nbytes > 0, group >= 2, "
                             "time > 0")

    def project(self, nbytes: float, group_size: int) -> float:
        """Projected collective time, linear in bytes, ring-adjusted."""
        if group_size <= 1 or nbytes <= 0:
            return 0.0
        scale = (nbytes / self.nbytes) * (
            _ring_factor(group_size) / _ring_factor(self.group_size)
        )
        return self.time * scale


def _measure_collective_reference(
    cluster: ClusterSpec,
    collective: CollectiveKind,
    nbytes: int,
    group_size: int,
) -> CollectiveReference:
    """Profile one collective on the testbed (isolated microbenchmark)."""
    link = cluster.link_for_group(group_size)
    if collective is CollectiveKind.ALL_REDUCE:
        time = collectives.all_reduce_time(
            nbytes, group_size, link,
            algorithm=cluster.allreduce_algorithm,
            model=cluster.collective_model,
        )
    elif collective is CollectiveKind.ALL_TO_ALL:
        time = collectives.all_to_all_time(nbytes, group_size, link,
                                           model=cluster.collective_model)
    elif collective is CollectiveKind.REDUCE_SCATTER:
        time = collectives.reduce_scatter_time(nbytes, group_size, link,
                                               model=cluster.collective_model)
    elif collective is CollectiveKind.ALL_GATHER:
        time = collectives.all_gather_time(nbytes, group_size, link,
                                           model=cluster.collective_model)
    else:
        raise ValueError(f"no reference benchmark for {collective}")
    return CollectiveReference(collective=collective, nbytes=nbytes,
                               group_size=group_size, time=time)


class OperatorModelSuite(Frozen):
    """Fitted operator-level models for one baseline + testbed.

    Attributes:
        baseline_model: The profiled baseline configuration.
        compute_reference: Baseline per-operator records, keyed by op name
            (the names of the :mod:`repro.models.layers` op table),
            carrying the measured time and the shape it was measured at.
        collective_references: One reference point per collective kind.
        baseline_cost: Testbed wall time spent obtaining the baseline
            profile (for profiling-speedup accounting).
    """

    __slots__ = ("baseline_model", "compute_reference",
                 "collective_references", "baseline_cost")

    baseline_model: ModelConfig
    compute_reference: Mapping[str, Tuple[Op, float]]
    collective_references: Mapping[CollectiveKind, CollectiveReference]
    baseline_cost: float

    def __init__(self, baseline_model: ModelConfig,
                 compute_reference: Mapping[str, Tuple[Op, float]],
                 collective_references: Mapping[CollectiveKind,
                                                 CollectiveReference],
                 baseline_cost: float) -> None:
        self._set(baseline_model=baseline_model,
                  compute_reference=compute_reference,
                  collective_references=collective_references,
                  baseline_cost=baseline_cost)

    def project_op(self, op: Op, trace: Trace) -> float:
        """Projected runtime of one target operator.

        Raises:
            KeyError: if a compute op's name has no baseline counterpart.
            ValueError: if a collective kind has no reference point.
        """
        if isinstance(op, CommOp):
            try:
                reference = self.collective_references[op.collective]
            except KeyError:
                raise ValueError(
                    f"no collective reference for {op.collective.value}"
                ) from None
            return reference.project(op.nbytes, trace.group_size(op.group))
        try:
            base_op, base_time = self.compute_reference[op.name]
        except KeyError:
            raise KeyError(
                f"baseline profile has no operator named {op.name!r}"
            ) from None
        if isinstance(op, GemmOp):
            if not isinstance(base_op, GemmOp):
                raise TypeError(f"baseline op {op.name!r} is not a GEMM")
            return base_time * op.shape.flops / base_op.shape.flops
        if isinstance(op, ElementwiseOp):
            if not isinstance(base_op, ElementwiseOp):
                raise TypeError(
                    f"baseline op {op.name!r} is not element-wise"
                )
            return base_time * op.elements / base_op.elements
        raise TypeError(f"unknown op type: {type(op)!r}")

    def project_durations(self, trace: Trace) -> List[float]:
        """Projected runtimes for every op of a target trace."""
        return [self.project_op(op, trace) for op in trace.ops]

    def project_execution(self, trace: Trace) -> ExecutionResult:
        """Projected end-to-end execution (schedule + breakdown).

        This is how Figures 10/12/14 are produced: projected operator
        times run through the same two-stream schedule as ground truth.
        """
        return schedule_with_durations(trace, self.project_durations(trace))


def fit_operator_models(
    cluster: ClusterSpec,
    baseline_model: ModelConfig = DEFAULT_BASELINE,
    timing: TimingModels = DEFAULT_TIMING,
    reference_ar_bytes: int = 32 * 1024 * 1024,
    reference_group: Optional[int] = None,
) -> OperatorModelSuite:
    """Profile a baseline and fit the operator-model suite.

    The baseline iteration is profiled on a single device (TP=DP=1, as in
    the paper); collectives are profiled as separate microbenchmarks on
    the testbed's node size.

    Args:
        reference_ar_bytes: Data size of the collective reference points.
        reference_group: Group size of the collective references (defaults
            to the cluster's node size, like the 4-GPU testbed).
    """
    baseline_parallel = ParallelConfig(tp=1, dp=1)
    baseline_trace = layer_trace(baseline_model, baseline_parallel)
    profile = profile_trace(baseline_trace, cluster, timing)

    compute_reference: Dict[str, Tuple[Op, float]] = {}
    for op, record in zip(baseline_trace.ops, profile.records):
        compute_reference.setdefault(op.name, (op, record.duration))

    group = reference_group or cluster.devices_per_node
    collective_references = {}
    reference_cost = 0.0
    for kind in (CollectiveKind.ALL_REDUCE, CollectiveKind.ALL_TO_ALL,
                 CollectiveKind.REDUCE_SCATTER, CollectiveKind.ALL_GATHER):
        reference = _measure_collective_reference(
            cluster, kind, reference_ar_bytes, group
        )
        collective_references[kind] = reference
        reference_cost += reference.time

    return OperatorModelSuite(
        baseline_model=baseline_model,
        compute_reference=compute_reference,
        collective_references=collective_references,
        baseline_cost=profile.total_time + reference_cost,
    )


class ErrorStats(Frozen):
    """Projection-error statistics over a set of operators.

    All values are relative errors (0.15 == 15%).
    """

    __slots__ = ("mean_abs", "geomean_abs", "max_abs", "count")

    mean_abs: float
    geomean_abs: float
    max_abs: float
    count: int

    def __init__(self, mean_abs: float, geomean_abs: float, max_abs: float,
                 count: int) -> None:
        self._set(mean_abs=mean_abs, geomean_abs=geomean_abs, max_abs=max_abs,
                  count=count)

    @staticmethod
    def empty() -> "ErrorStats":
        return ErrorStats(mean_abs=0.0, geomean_abs=0.0, max_abs=0.0,
                          count=0)


def error_stats(errors: Sequence[float]) -> ErrorStats:
    """Aggregate relative errors into the paper's reporting stats.

    Geomean follows the paper's convention for multiplicative error:
    ``exp(mean(log(1 + |e|))) - 1``.
    """
    if not errors:
        return ErrorStats.empty()
    abs_errors = [abs(e) for e in errors]
    mean_abs = sum(abs_errors) / len(abs_errors)
    geomean_abs = math.exp(
        sum(math.log1p(e) for e in abs_errors) / len(abs_errors)
    ) - 1.0
    return ErrorStats(
        mean_abs=mean_abs,
        geomean_abs=geomean_abs,
        max_abs=max(abs_errors),
        count=len(abs_errors),
    )


def projection_errors(
    suite: OperatorModelSuite,
    traces: Sequence[Trace],
    cluster: ClusterSpec,
    timing: TimingModels = DEFAULT_TIMING,
    op_filter: Optional[str] = None,
) -> List[float]:
    """Relative per-op errors of projection vs simulator ground truth.

    Args:
        op_filter: restrict to ops whose *family* matches: ``"gemm"``,
            an element-wise kind (``"layernorm"``...), or a collective
            value (``"all-reduce"``...).

    Returns:
        ``(projected - actual) / actual`` per matching operator, across
        all supplied traces.
    """
    errors: List[float] = []
    for trace in traces:
        for op in trace.ops:
            if op_filter is not None and not _matches(op, op_filter):
                continue
            actual = op_duration(op, trace, cluster, timing)
            if actual == 0:
                continue
            projected = suite.project_op(op, trace)
            errors.append((projected - actual) / actual)
    return errors


def _matches(op: Op, family: str) -> bool:
    if isinstance(op, GemmOp):
        if family == "weight-gemm":
            return op.has_weights
        return family == "gemm"
    if isinstance(op, ElementwiseOp):
        return op.kind == family
    if isinstance(op, CommOp):
        return op.collective.value == family
    return False
