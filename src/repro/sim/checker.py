"""Differential correctness harness for the simulation engines.

The paper's headline claim -- <15% projection error at a ~2100x lower
profiling cost -- rests on the simulator being correct, and the repo
carries two independent engines (the scalar per-config path of
:mod:`repro.sim.executor` and the vectorized batch path of
:mod:`repro.core.batch`) whose agreement must hold bit-for-bit.  This
module keeps them honest with five layers:

1. **Schedule validation** (:func:`validate_schedule`,
   :func:`validate_execution`, :func:`validate_batch`): assert the stream
   invariants of :mod:`repro.core.invariants` on any schedule, execution
   result, or batched breakdown.  Wired behind ``Session(check=True)``,
   the CLI ``--check`` flag, and the ``REPRO_CHECK=1`` environment
   variable so every experiment can self-verify without slowing default
   runs.

2. **Differential oracle** (:func:`differential_oracle`): seeded random
   ``(H, SL, B, TP, DP)`` configurations run through the scalar engine,
   the batch engine, and the closed-form operation/byte-count laws of
   :mod:`repro.core.flops` as a third reference.  The first divergent
   configuration is reported with an op-level duration diff
   (:class:`OpDiff`) instead of a bare assert.

3. **Fault-seeding self-test** (:func:`seeded_faults`,
   :func:`fault_selftest`): mutate known-good schedules (swap two starts,
   perturb a duration, drop a dependency, ...) and confirm the validator
   flags every mutant while accepting the originals -- so the checker
   itself is tested.

4. **Stream oracle** (:func:`stream_oracle`): the chunked streaming
   sweep (:func:`repro.runtime.megasweep.stream_sweep`) re-evaluated
   against a one-shot :func:`~repro.core.batch.batch_execute` of the
   same grid: collected breakdown arrays and every online reducer's
   finalized output must match bit-for-bit across chunk sizes and
   across the serial path vs a multi-process pool.

5. **Prune oracle** (:func:`prune_oracle`): the bound-and-prune search
   path held to its two contracts.  Exact bounds: on seeded random
   configurations, every :data:`repro.core.bounds.BOUNDED_METRICS`
   bound must satisfy ``lower == exact == upper`` bit for bit against
   the batch engine, read through a duration table at a row offset as
   a pruned sweep reads it.  Zero drift: pruned
   ``stream_sweep(prune=True)`` runs over a seeded ~200-chunk grid must
   reproduce the exhaustive reductions bit-for-bit across chunk sizes
   and worker counts, while the reported exact-evaluated fraction
   confirms pruning actually engaged.

Run every layer from the command line with ``python -m repro check``.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro._frozen import Frozen
from repro.core import flops
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.core.invariants import (
    Violation,
    assert_valid,
    batch_violations,
    execution_violations,
    schedule_violations,
)
from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.models.trace import layer_trace
from repro.sim.checkflag import CHECK_ENV, _count_validation, check_enabled
from repro.sim.engine import Schedule, ScheduledTask
from repro.sim.executor import (
    DEFAULT_TIMING,
    ExecutionResult,
    TimingModels,
    execute_trace,
    op_duration,
)

#: Render the full harness description (check layers, ``--check``,
#: ``REPRO_CHECK``) into docs/API.md.
__apidoc_full__ = True

__all__ = [
    "CHECK_ENV",
    "check_enabled",
    "validate_schedule",
    "validate_execution",
    "validate_batch",
    "random_configs",
    "OpDiff",
    "Divergence",
    "OracleReport",
    "differential_oracle",
    "seeded_faults",
    "fault_selftest",
    "SelfTestReport",
    "StreamReport",
    "stream_oracle",
    "PruneReport",
    "prune_oracle",
]


def validate_schedule(schedule: Schedule) -> None:
    """Raise :class:`~repro.core.invariants.InvariantError` unless the
    schedule is valid."""
    _count_validation()
    assert_valid(schedule_violations(schedule), context="schedule")


def validate_execution(result: ExecutionResult) -> None:
    """Raise :class:`~repro.core.invariants.InvariantError` unless the
    execution is consistent (schedule invariants + breakdown
    conservation)."""
    _count_validation()
    assert_valid(execution_violations(result), context="execution")


def validate_batch(batch) -> None:
    """Raise :class:`~repro.core.invariants.InvariantError` unless a
    batched breakdown obeys the conservation laws on every grid entry."""
    _count_validation()
    assert_valid(batch_violations(batch), context="batch breakdown")


# -- differential oracle -------------------------------------------------

_HEAD_DIMS = (32, 64, 128)
_HEADS_PER_TP = (1, 2, 4)
_TP_DEGREES = (1, 2, 4, 8, 16, 32, 64)
_DP_DEGREES = (1, 2, 4, 8, 16)
_SEQ_LENS = (128, 256, 512, 1024, 2048, 4096)
_BATCHES = (1, 2, 4, 8)


def random_configs(n: int, seed: int = 0
                   ) -> List[Tuple[ModelConfig, ParallelConfig]]:
    """``n`` seeded random, always-valid ``(model, parallel)`` pairs.

    Hidden dimensions are built as ``num_heads * head_dim`` with
    ``num_heads`` a multiple of TP, so every divisibility constraint of
    :class:`ModelConfig`/:class:`~repro.core.batch.ConfigGrid` holds by
    construction.  The same ``(n, seed)`` always yields the same configs.
    """
    rng = random.Random(seed)
    pairs: List[Tuple[ModelConfig, ParallelConfig]] = []
    for index in range(n):
        tp = rng.choice(_TP_DEGREES)
        num_heads = tp * rng.choice(_HEADS_PER_TP)
        hidden = num_heads * rng.choice(_HEAD_DIMS)
        model = ModelConfig(
            name=f"oracle-{index}",
            hidden=hidden,
            seq_len=rng.choice(_SEQ_LENS),
            batch=rng.choice(_BATCHES),
            num_heads=num_heads,
        )
        pairs.append((model, ParallelConfig(tp=tp,
                                            dp=rng.choice(_DP_DEGREES))))
    return pairs


class OpDiff(Frozen):
    """One operator whose duration differs between the two engines."""

    __slots__ = ("name", "scalar", "batch")

    name: str
    scalar: float
    batch: float

    def __init__(self, name: str, scalar: float, batch: float) -> None:
        self._set(name=name, scalar=scalar, batch=batch)

    @property
    def delta(self) -> float:
        return self.batch - self.scalar

    def __str__(self) -> str:
        return (f"{self.name}: scalar={self.scalar!r} batch={self.batch!r} "
                f"(delta {self.delta:+.3e})")


class Divergence(Frozen):
    """The first configuration on which the engines (or laws) disagree.

    Attributes:
        index: Position in the generated config sequence.
        model: The diverging model configuration.
        parallel: The diverging distributed setup.
        scalar: Scalar-engine breakdown.
        batch: Batch-engine breakdown.
        op_diffs: Per-operator duration differences (empty when the
            breakdowns agree but an invariant or closed-form law failed).
        violations: Invariant/closed-form violations found on the config.
    """

    __slots__ = ("index", "model", "parallel", "scalar", "batch", "op_diffs",
                 "violations")

    index: int
    model: ModelConfig
    parallel: ParallelConfig
    scalar: object
    batch: object
    op_diffs: Tuple[OpDiff, ...]
    violations: Tuple[Violation, ...]

    def __init__(self, index: int, model: ModelConfig,
                 parallel: ParallelConfig, scalar: object, batch: object,
                 op_diffs: Tuple[OpDiff, ...] = (),
                 violations: Tuple[Violation, ...] = ()) -> None:
        self._set(index=index, model=model, parallel=parallel, scalar=scalar,
                  batch=batch, op_diffs=op_diffs, violations=violations)

    def describe(self) -> str:
        """Multi-line report of what diverged and by how much."""
        lines = [
            f"config #{self.index}: H={self.model.hidden} "
            f"SL={self.model.seq_len} B={self.model.batch} "
            f"TP={self.parallel.tp} DP={self.parallel.dp}",
            f"  scalar: {self.scalar}",
            f"  batch:  {self.batch}",
        ]
        for diff in self.op_diffs:
            lines.append(f"  op {diff}")
        for violation in self.violations:
            lines.append(f"  {violation}")
        return "\n".join(lines)


class OracleReport(Frozen):
    """Outcome of one differential-oracle run.

    Attributes:
        configs: Number of configurations requested.
        checked: Configurations compared before stopping (all of them
            when no divergence was found).
        seed: RNG seed the configs were generated from.
        divergence: The first divergence, or None when the engines agree
            everywhere.
    """

    __slots__ = ("configs", "checked", "seed", "divergence")

    configs: int
    checked: int
    seed: int
    divergence: Optional[Divergence]

    def __init__(self, configs: int, checked: int, seed: int,
                 divergence: Optional[Divergence] = None) -> None:
        self._set(configs=configs, checked=checked, seed=seed,
                  divergence=divergence)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        if self.ok:
            return (f"differential oracle: OK -- scalar and batch engines "
                    f"agree bit-for-bit on {self.checked} seeded configs "
                    f"(seed {self.seed})")
        return (f"differential oracle: FAIL after {self.checked} configs "
                f"(seed {self.seed})\n{self.divergence.describe()}")


def _closed_form_violations(trace, model: ModelConfig,
                            parallel: ParallelConfig) -> List[Violation]:
    """Third-reference checks: trace totals vs the Section 3 closed forms.

    GEMM operations and serialized all-reduce bytes must match
    :mod:`repro.core.flops` exactly (integer identities); overlappable
    gradient bytes are bounded by the closed-form weight-gradient bytes
    (the closed form also counts biases, which the layer trace folds into
    element-wise ops).
    """
    violations: List[Violation] = []
    expected_flops = flops.training_layer_ops(model, parallel)
    actual_flops = trace.total_gemm_flops()
    if actual_flops != expected_flops:
        violations.append(Violation(
            "closed-form-flops", model.name,
            f"trace GEMM ops {actual_flops} != Equations 1-4 total "
            f"{expected_flops}",
        ))
    expected_ser = flops.serialized_comm_bytes(model, parallel)
    actual_ser = trace.total_comm_bytes(overlappable=False)
    if actual_ser != expected_ser:
        violations.append(Violation(
            "closed-form-serialized-bytes", model.name,
            f"trace serialized bytes {actual_ser} != Equation 5 total "
            f"{expected_ser}",
        ))
    overlappable = trace.total_comm_bytes(overlappable=True)
    if parallel.dp > 1:
        bound = flops.layer_weight_grad_bytes(model, parallel)
        if not 0 < overlappable <= bound:
            violations.append(Violation(
                "closed-form-overlap-bytes", model.name,
                f"trace overlappable bytes {overlappable} outside "
                f"(0, {bound}] (Equation 8 weight-gradient bound)",
            ))
    elif overlappable != 0:
        violations.append(Violation(
            "closed-form-overlap-bytes", model.name,
            f"DP=1 trace moves {overlappable} overlappable bytes; "
            f"expected none",
        ))
    return violations


def _op_diffs(trace, model: ModelConfig, parallel: ParallelConfig,
              cluster: ClusterSpec, timing: TimingModels
              ) -> Tuple[OpDiff, ...]:
    """Per-operator duration diff between scalar and batch timing paths."""
    from repro.core.batch import ConfigGrid, _slot_durations
    from repro.models.layers import layer_records

    grid = ConfigGrid.from_models([(model, parallel)])
    records = layer_records(grid, parallel.tp > 1, parallel.dp > 1)
    batch_durations = _slot_durations(records, grid, cluster, timing)
    diffs = []
    for op, batch_values in zip(trace.ops, batch_durations):
        scalar_value = op_duration(op, trace, cluster, timing)
        batch_value = float(batch_values[0])
        if scalar_value != batch_value:
            diffs.append(OpDiff(name=op.name, scalar=scalar_value,
                                batch=batch_value))
    return tuple(diffs)


def differential_oracle(
    n: int = 200,
    seed: int = 0,
    cluster: Optional[ClusterSpec] = None,
    timing: TimingModels = DEFAULT_TIMING,
) -> OracleReport:
    """Run scalar vs batch vs closed-form laws on seeded random configs.

    Every configuration is (a) executed by the scalar engine and checked
    against the full invariant catalogue, (b) evaluated by the vectorized
    batch engine and compared bit-for-bit, and (c) cross-checked against
    the closed-form operation/byte-count laws.  Stops at the first
    divergent configuration and reports it with an op-level duration
    diff.
    """
    from repro.core.batch import ConfigGrid, batch_execute

    if n < 1:
        raise ValueError("n must be >= 1")
    cluster = cluster if cluster is not None else mi210_node()
    pairs = random_configs(n, seed)
    grid = ConfigGrid.from_models(pairs)
    batched = batch_execute(grid, cluster, timing)
    checked = 0
    for index, (model, parallel) in enumerate(pairs):
        trace = layer_trace(model, parallel)
        result = execute_trace(trace, cluster, timing)
        violations = execution_violations(result)
        violations.extend(_closed_form_violations(trace, model, parallel))
        scalar_breakdown = result.breakdown
        batch_breakdown = batched.at(index)
        checked += 1
        if scalar_breakdown != batch_breakdown or violations:
            op_diffs = ()
            if scalar_breakdown != batch_breakdown:
                op_diffs = _op_diffs(trace, model, parallel, cluster,
                                     timing)
            return OracleReport(
                configs=n, checked=checked, seed=seed,
                divergence=Divergence(
                    index=index, model=model, parallel=parallel,
                    scalar=scalar_breakdown, batch=batch_breakdown,
                    op_diffs=op_diffs, violations=tuple(violations),
                ),
            )
    return OracleReport(configs=n, checked=checked, seed=seed)


# -- fault seeding -------------------------------------------------------


def _rebuilt(schedule: Schedule, index: int,
             mutated: ScheduledTask) -> Schedule:
    tasks = list(schedule.tasks)
    tasks[index] = mutated
    return Schedule(tasks=tuple(tasks))


def _fault_swap_starts(schedule: Schedule) -> Optional[Schedule]:
    """Swap the start times of two same-resource tasks (FIFO break)."""
    by_resource: dict = {}
    for index, st in enumerate(schedule.tasks):
        by_resource.setdefault(st.task.resource, []).append(index)
    for indices in by_resource.values():
        for first, second in zip(indices, indices[1:]):
            a, b = schedule.tasks[first], schedule.tasks[second]
            if a.start != b.start:
                tasks = list(schedule.tasks)
                tasks[first] = a.replace(start=b.start,
                                         finish=b.start + a.task.duration)
                tasks[second] = b.replace(start=a.start,
                                          finish=a.start + b.task.duration)
                return Schedule(tasks=tuple(tasks))
    return None


def _fault_perturb_duration(schedule: Schedule) -> Optional[Schedule]:
    """Grow one task's duration without moving its finish time."""
    for index, st in enumerate(schedule.tasks):
        if st.task.duration > 0:
            task = st.task.replace(duration=st.task.duration * 1.5)
            return _rebuilt(schedule, index, st.replace(task=task))
    return None


def _fault_drop_dep(schedule: Schedule) -> Optional[Schedule]:
    """Remove the binding dependency of a task (eager-start break)."""
    finish_of = {st.task.id: st.finish for st in schedule.tasks}
    resource_free: dict = {}
    for index, st in enumerate(schedule.tasks):
        free = resource_free.get(st.task.resource, 0.0)
        for dep in st.task.deps:
            others = [finish_of[d] for d in st.task.deps if d != dep]
            remaining = max([0.0, free] + others)
            if finish_of[dep] == st.start and remaining < st.start:
                deps = tuple(d for d in st.task.deps if d != dep)
                task = st.task.replace(deps=deps)
                return _rebuilt(schedule, index, st.replace(task=task))
        resource_free[st.task.resource] = max(free, st.finish)
    return None


def _fault_negative_start(schedule: Schedule) -> Optional[Schedule]:
    """Shift one task before time zero."""
    if not schedule.tasks:
        return None
    st = schedule.tasks[0]
    return _rebuilt(schedule, 0,
                    st.replace(start=-1.0,
                               finish=-1.0 + st.task.duration))


def _fault_overlap_intervals(schedule: Schedule) -> Optional[Schedule]:
    """Slide a task on top of its same-resource predecessor."""
    last_on_resource: dict = {}
    for index, st in enumerate(schedule.tasks):
        prev_index = last_on_resource.get(st.task.resource)
        if prev_index is not None:
            prev = schedule.tasks[prev_index]
            if prev.task.duration > 0 and st.task.duration > 0:
                start = prev.start
                return _rebuilt(
                    schedule, index,
                    st.replace(start=start,
                               finish=start + st.task.duration),
                )
        last_on_resource[st.task.resource] = index
    return None


_FAULTS = (
    ("swap-starts", _fault_swap_starts),
    ("perturb-duration", _fault_perturb_duration),
    ("drop-dep", _fault_drop_dep),
    ("negative-start", _fault_negative_start),
    ("overlap-intervals", _fault_overlap_intervals),
)


def seeded_faults(schedule: Schedule) -> List[Tuple[str, Schedule]]:
    """Deterministically mutated copies of a known-good schedule.

    Each returned ``(name, schedule)`` pair violates at least one engine
    invariant; mutations that do not apply to the given schedule (e.g. no
    two tasks share a resource) are skipped.
    """
    mutants = []
    for name, mutate in _FAULTS:
        mutated = mutate(schedule)
        if mutated is not None:
            mutants.append((name, mutated))
    return mutants


class SelfTestReport(Frozen):
    """Outcome of the fault-seeding self-test.

    Attributes:
        schedules: Known-good schedules validated.
        rejected_good: Good schedules the validator wrongly rejected.
        faults: Seeded faults generated across all schedules.
        caught: Seeded faults the validator flagged.
        missed: ``(schedule, fault)`` labels of undetected faults.
    """

    __slots__ = ("schedules", "rejected_good", "faults", "caught", "missed")

    schedules: int
    rejected_good: int
    faults: int
    caught: int
    missed: Tuple[str, ...]

    def __init__(self, schedules: int, rejected_good: int, faults: int,
                 caught: int, missed: Tuple[str, ...] = ()) -> None:
        self._set(schedules=schedules, rejected_good=rejected_good,
                  faults=faults, caught=caught, missed=missed)

    @property
    def ok(self) -> bool:
        return self.rejected_good == 0 and self.caught == self.faults

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"fault-seeding self-test: {status} -- validator accepted "
            f"{self.schedules - self.rejected_good}/{self.schedules} good "
            f"schedules and caught {self.caught}/{self.faults} seeded "
            f"faults",
        ]
        lines.extend(f"  missed: {label}" for label in self.missed)
        return "\n".join(lines)


def _reference_schedules(cluster: ClusterSpec,
                         timing: TimingModels) -> List[Tuple[str, Schedule]]:
    """Representative engine-produced schedules covering every stream."""
    from repro.sim.overlap import execute_with_decomposition

    model = ModelConfig(name="selftest", hidden=2048, seq_len=512, batch=2,
                        num_heads=16)
    schedules = []
    for label, parallel in (
        ("tp-dp", ParallelConfig(tp=8, dp=4)),
        ("tp-only", ParallelConfig(tp=8, dp=1)),
        ("serial", ParallelConfig(tp=1, dp=1)),
    ):
        trace = layer_trace(model, parallel)
        schedules.append(
            (label, execute_trace(trace, cluster, timing).schedule)
        )
    decomposed = execute_with_decomposition(
        layer_trace(model, ParallelConfig(tp=8, dp=1)), cluster, chunks=4,
        timing=timing,
    )
    schedules.append(("decomposed", decomposed.schedule))
    return schedules


def fault_selftest(cluster: Optional[ClusterSpec] = None,
                   timing: TimingModels = DEFAULT_TIMING) -> SelfTestReport:
    """Validate good schedules, then confirm every seeded fault is caught.

    The good schedules come from the scalar engine across TP/DP parities
    plus a chunked-decomposition execution, so the validator is exercised
    on every stream layout the engines produce.
    """
    cluster = cluster if cluster is not None else mi210_node()
    schedules = _reference_schedules(cluster, timing)
    rejected_good = 0
    faults = 0
    caught = 0
    missed: List[str] = []
    for label, schedule in schedules:
        if schedule_violations(schedule):
            rejected_good += 1
        for fault_name, mutated in seeded_faults(schedule):
            faults += 1
            if schedule_violations(mutated):
                caught += 1
            else:
                missed.append(f"{label}/{fault_name}")
    return SelfTestReport(schedules=len(schedules),
                          rejected_good=rejected_good, faults=faults,
                          caught=caught, missed=tuple(missed))


# -- stream oracle -------------------------------------------------------


class StreamReport(Frozen):
    """Outcome of the streamed-vs-one-shot differential check.

    Attributes:
        points: Grid rows evaluated (after constraints).
        variants: Streaming variants compared against the one-shot
            reference, as ``chunk<size>-jobs<n>`` labels.
        mismatches: ``variant/reduction`` labels that diverged from the
            one-shot reference (empty when everything is bit-identical).
    """

    __slots__ = ("points", "variants", "mismatches")

    points: int
    variants: Tuple[str, ...]
    mismatches: Tuple[str, ...]

    def __init__(self, points: int, variants: Tuple[str, ...],
                 mismatches: Tuple[str, ...] = ()) -> None:
        self._set(points=points, variants=variants, mismatches=mismatches)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"stream oracle: {status} -- {len(self.variants)} streamed "
            f"variants ({', '.join(self.variants)}) over {self.points} "
            f"configs vs one-shot batch_execute",
        ]
        lines.extend(f"  mismatch: {label}" for label in self.mismatches)
        return "\n".join(lines)


def _stream_reference_spec():
    """A small mixed-parity grid exercising constraint filtering."""
    from repro.core.gridplan import GridSpec, MaxWorldSize

    return GridSpec(
        hidden=(1024, 2048, 4096),
        seq_len=(512, 1024),
        batch=(1, 4),
        tp=(1, 2, 8),
        dp=(1, 4),
        constraints=(MaxWorldSize(16),),
    )


def stream_oracle(cluster: Optional[ClusterSpec] = None,
                  timing: TimingModels = DEFAULT_TIMING,
                  chunk_sizes: Sequence[int] = (5, 16),
                  jobs: Sequence[int] = (1, 2)) -> StreamReport:
    """Streamed sweep vs one-shot batch evaluation, bit-for-bit.

    The one-shot reference materializes the whole (constraint-filtered)
    grid, evaluates it with :func:`~repro.core.batch.batch_execute`, and
    reduces it as a single chunk.  Every ``(chunk_size, jobs)`` variant
    then streams the same grid through
    :func:`~repro.runtime.megasweep.stream_sweep`; the collected
    breakdown rows and every reducer's finalized output must equal the
    reference exactly -- any drift in chunking, constraint masking,
    worker shipping, or reducer merging shows up as a mismatch.
    """
    from repro.core.batch import batch_execute
    from repro.core.reducers import (
        ArgExtrema,
        Collect,
        EvaluatedChunk,
        Histogram,
        ParetoFront,
        TopK,
    )
    from repro.runtime.megasweep import stream_sweep

    cluster = cluster if cluster is not None else mi210_node()
    spec = _stream_reference_spec()
    reducers = (
        TopK("iteration_time", k=5, largest=False),
        ParetoFront(),
        Histogram("serialized_comm_fraction", bins=16),
        ArgExtrema("exposed_comm_time"),
        Collect(),
    )
    whole = spec.materialize()
    reference_breakdown = batch_execute(whole.grid, cluster, timing)
    one_shot = EvaluatedChunk(offsets=whole.offsets,
                              columns=whole.columns(),
                              breakdown=reference_breakdown)
    reference = {
        reducer.label: reducer.finalize(
            reducer.merge(reducer.empty(), reducer.observe(one_shot)))
        for reducer in reducers
    }
    variants: List[str] = []
    mismatches: List[str] = []
    for chunk_size in chunk_sizes:
        for n_jobs in jobs:
            label = f"chunk{chunk_size}-jobs{n_jobs}"
            variants.append(label)
            result = stream_sweep(spec, reducers, cluster=cluster,
                                  timing=timing, chunk_size=chunk_size,
                                  jobs=n_jobs)
            if result.evaluated_points != len(whole.grid):
                mismatches.append(f"{label}/point-count")
            for reducer in reducers:
                if result.reductions[reducer.label] \
                        != reference[reducer.label]:
                    mismatches.append(f"{label}/{reducer.label}")
    return StreamReport(points=len(whole.grid), variants=tuple(variants),
                        mismatches=tuple(mismatches))


# -- prune oracle --------------------------------------------------------


class PruneReport(Frozen):
    """Outcome of the bound-and-prune differential check.

    Attributes:
        configs: Seeded random configs whose bounds were checked.
        bound_violations: ``metric@index`` labels where a bound failed
            ``lower == exact == upper``.
        points: Grid rows of the pruned-vs-exhaustive sweep (after
            constraints).
        variants: Pruned sweep variants compared against the exhaustive
            reference, as ``<set>-chunk<size>`` labels.
        mismatches: ``variant/reduction`` labels whose pruned output
            diverged from the exhaustive reference.
        exact_fraction: Mean fraction of non-empty chunks the pruned
            variants reduced (must be < 1 for the check to
            mean anything; reported so regressions in pruning power are
            visible).
    """

    __slots__ = ("configs", "bound_violations", "points", "variants",
                 "mismatches", "exact_fraction")

    configs: int
    bound_violations: Tuple[str, ...]
    points: int
    variants: Tuple[str, ...]
    mismatches: Tuple[str, ...]
    exact_fraction: float

    def __init__(self, configs: int, bound_violations: Tuple[str, ...],
                 points: int, variants: Tuple[str, ...],
                 mismatches: Tuple[str, ...] = (),
                 exact_fraction: float = 1.0) -> None:
        self._set(configs=configs, bound_violations=bound_violations,
                  points=points, variants=variants, mismatches=mismatches,
                  exact_fraction=exact_fraction)

    @property
    def ok(self) -> bool:
        return not self.bound_violations and not self.mismatches

    def summary(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [
            f"prune oracle: {status} -- bounds exact on "
            f"{self.configs} seeded configs; {len(self.variants)} pruned "
            f"variants ({', '.join(self.variants)}) over {self.points} "
            f"configs match the exhaustive sweep bit-for-bit "
            f"(mean exact-chunk fraction {self.exact_fraction:.2f})",
        ]
        lines.extend(f"  bound violation: {label}"
                     for label in self.bound_violations[:10])
        lines.extend(f"  mismatch: {label}" for label in self.mismatches)
        return "\n".join(lines)


def _prune_reference_spec():
    """A ~200-chunk mixed-parity grid (at chunk size 4) for the oracle."""
    from repro.core.gridplan import GridSpec, MaxWorldSize

    return GridSpec(
        hidden=(512, 1024, 2048, 4096),
        seq_len=(256, 512, 1024),
        batch=(1, 2, 4, 8),
        tp=(1, 2, 4, 8),
        dp=(1, 2, 4, 8),
        constraints=(MaxWorldSize(32),),
    )


def prune_oracle(cluster: Optional[ClusterSpec] = None,
                 timing: TimingModels = DEFAULT_TIMING,
                 n: int = 160,
                 seed: int = 0,
                 chunk_sizes: Sequence[int] = (4, 16)) -> PruneReport:
    """Exact bounds plus pruned-vs-exhaustive bit-equality.

    Part one evaluates seeded random configurations with the exact
    batch engine and with :func:`repro.core.bounds.bound_grid`, which
    reads each half of the grid from one duration table over the whole
    grid (the second half at a row offset, as a pruned sweep reads a
    block's later chunks), and asserts ``lower == exact == upper`` bit
    for bit for every bounded metric.  Part two streams a seeded
    mixed-parity grid through ``stream_sweep(prune=True)`` (always
    serial) for every chunk size and requires each finalized reduction
    to equal the exhaustive sweep's output exactly -- the
    bound-and-prune scheduler may only ever skip work, never change
    results.
    """
    import numpy as np

    from repro.core.batch import ConfigGrid, DurationTable, batch_execute
    from repro.core.bounds import BOUNDED_METRICS, bound_grid
    from repro.core.reducers import ArgExtrema, ParetoFront, TopK
    from repro.runtime.megasweep import stream_sweep

    cluster = cluster if cluster is not None else mi210_node()

    configs = random_configs(n, seed)
    grid = ConfigGrid.from_models(configs)
    exact = batch_execute(grid, cluster, timing)
    table = DurationTable.of_grid(grid, cluster, timing)
    half = n // 2
    halves = [bound_grid(ConfigGrid.from_models(part), cluster=cluster,
                         timing=timing, table=table, start=first)
              for part, first in ((configs[:half], 0),
                                  (configs[half:], half)) if part]
    bound_violations: List[str] = []
    for metric in BOUNDED_METRICS:
        values = np.asarray(getattr(exact, metric), dtype=np.float64)
        for side in ("lower", "upper"):
            bound = np.concatenate([getattr(bounds, side)[metric]
                                    for bounds in halves])
            bad = np.flatnonzero(bound != values)
            bound_violations.extend(f"{metric}@{index}" for index in bad)

    # Two reducer sets: "full" stresses agreement when every objective
    # must consent to a skip (pruning is rare but must stay safe);
    # "select" is the realistic search shape (top-k + Pareto) where
    # pruning actually engages, so the skip branch itself is exercised.
    reducer_sets = {
        "full": lambda: (
            TopK("iteration_time", k=5, largest=False),
            TopK("compute_time", k=3, largest=True),
            ParetoFront(),
            ArgExtrema("exposed_comm_time"),
        ),
        "select": lambda: (
            TopK("iteration_time", k=5, largest=False),
            ParetoFront(),
        ),
    }

    spec = _prune_reference_spec()
    points = 0
    variants: List[str] = []
    mismatches: List[str] = []
    fractions: List[float] = []
    for set_name, make_reducers in reducer_sets.items():
        reference = stream_sweep(spec, make_reducers(), cluster=cluster,
                                 timing=timing, chunk_size=16, jobs=1)
        points = reference.evaluated_points
        for chunk_size in chunk_sizes:
            label = f"{set_name}-chunk{chunk_size}"
            variants.append(label)
            pruned = stream_sweep(spec, make_reducers(), cluster=cluster,
                                  timing=timing, chunk_size=chunk_size,
                                  prune=True)
            meta = pruned.meta["prune"]
            if not meta["enabled"]:
                mismatches.append(f"{label}/prune-disabled")
                continue
            if set_name == "select":
                fractions.append(float(meta["exact_chunk_fraction"]))
            for key, reference_value in reference.reductions.items():
                if pruned.reductions[key] != reference_value:
                    mismatches.append(f"{label}/{key}")
    exact_fraction = (sum(fractions) / len(fractions)) if fractions else 1.0
    return PruneReport(
        configs=n,
        bound_violations=tuple(bound_violations),
        points=points,
        variants=tuple(variants),
        mismatches=tuple(mismatches),
        exact_fraction=exact_fraction,
    )
