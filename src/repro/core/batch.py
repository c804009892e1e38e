"""Batch projection engine: whole sweep grids as NumPy arrays.

The scalar path pays a per-configuration Python tax: every grid point of
the Figure 10-13 sweeps builds a per-op :class:`~repro.models.graph.Trace`
and runs the discrete-event scheduler.  But a Transformer layer's trace
has *fixed structure* for a given parallelism parity -- the same ~34
operator slots in the same order, only the shapes change -- so a whole
grid can be evaluated at once:

* :class:`ConfigGrid` holds the (H, SL, B, TP, DP) columns as int64
  arrays;
* the grid is partitioned by ``(TP > 1, DP > 1)`` parity, and each
  partition's slot list is built once by mirroring
  :mod:`repro.models.layers` (and cross-checked against a real
  :func:`~repro.models.trace.layer_trace` exemplar, so structural drift
  fails loudly instead of silently diverging);
* per-slot duration arrays come from the vectorized timing mirrors in
  :mod:`repro.sim.vectorized` (ground truth) or from the fitted
  :class:`~repro.core.projection.OperatorModelSuite` scaling laws
  (projection), reproducing the scalar engines bit-for-bit;
* data parallelism changes only the gradient all-reduces, so every other
  slot (all GEMMs, element-wise ops and TP all-reduces) is timed once
  per run of equal DP-free rows ``(H, SL, B, TP, heads, FFN)`` and
  gathered back per row (:func:`_dp_free_rows`); only the DP-group
  all-reduces are timed on every row;
* the two-stream schedule collapses to closed-form prefix sums
  (:func:`repro.sim.vectorized.closed_form_breakdown`): serialized comm
  adds to the critical path, overlappable DP all-reduces expose only
  ``max(0, comm - remaining_compute)`` slack.

The scalar engine stays the reference implementation and the fallback
for irregular traces (multi-layer pipelines, MoE, mixed precisions).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.evolution import HardwareScenario
from repro.core.hyperparams import (
    ModelConfig,
    ParallelConfig,
    Precision,
)
from repro.core.projection import OperatorModelSuite, _ring_factor
from repro.hardware.cluster import ClusterSpec
from repro.models.graph import (
    CommGroup,
    CommOp,
    ElementwiseOp,
    GemmOp,
)
from repro.models.trace import layer_trace
from repro.sim import vectorized
from repro.sim.breakdown import Breakdown
from repro.sim.executor import DEFAULT_TIMING, TimingModels

__all__ = [
    "ConfigGrid",
    "BatchBreakdown",
    "batch_execute",
    "batch_project",
    "batch_overlap_roi",
    "serialized_fractions_for_pairs",
]


def _column(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return array


@dataclass(frozen=True, eq=False)
class ConfigGrid:
    """Arrays of sweep configurations, one entry per grid point.

    All columns share one length; ``precision`` is uniform across the
    grid (mixed-precision grids fall back to the scalar engine).
    """

    hidden: np.ndarray
    seq_len: np.ndarray
    batch: np.ndarray
    tp: np.ndarray
    dp: np.ndarray
    num_heads: np.ndarray
    ffn_dim: np.ndarray
    precision: Precision = Precision.FP16

    def __post_init__(self) -> None:
        columns = {
            "hidden": _column(self.hidden, "hidden"),
            "seq_len": _column(self.seq_len, "seq_len"),
            "batch": _column(self.batch, "batch"),
            "tp": _column(self.tp, "tp"),
            "dp": _column(self.dp, "dp"),
            "num_heads": _column(self.num_heads, "num_heads"),
            "ffn_dim": _column(self.ffn_dim, "ffn_dim"),
        }
        lengths = {a.shape[0] for a in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"config columns have mismatched lengths: {sorted(lengths)}"
            )
        for name, array in columns.items():
            if (array < 1).any():
                raise ValueError(f"{name} entries must be >= 1")
            object.__setattr__(self, name, array)
        if (columns["hidden"] % columns["num_heads"] != 0).any():
            raise ValueError("hidden must be divisible by num_heads")
        if (columns["num_heads"] % columns["tp"] != 0).any():
            raise ValueError("num_heads must be divisible by TP")
        if (columns["ffn_dim"] % columns["tp"] != 0).any():
            raise ValueError("ffn_dim must be divisible by TP")

    def __len__(self) -> int:
        return int(self.hidden.shape[0])

    @classmethod
    def from_serialized(
        cls,
        configs: Sequence[Tuple[int, int, int]],
        batch: int = 1,
        precision: Precision = Precision.FP16,
    ) -> "ConfigGrid":
        """Grid for ``(hidden, seq_len, tp)`` serialized-sweep configs.

        Mirrors :func:`repro.experiments.sweeps.serialized_model`: head
        count from :func:`repro.core.strategy.sweep_num_heads`, DP = 1.
        """
        hidden = _column([c[0] for c in configs], "hidden")
        seq_len = _column([c[1] for c in configs], "seq_len")
        tp = _column([c[2] for c in configs], "tp")
        num_heads = np.maximum(tp, np.maximum(1, hidden // 128))
        return cls(
            hidden=hidden,
            seq_len=seq_len,
            batch=np.full_like(hidden, batch),
            tp=tp,
            dp=np.ones_like(hidden),
            num_heads=num_heads,
            ffn_dim=4 * hidden,
            precision=precision,
        )

    @classmethod
    def from_overlap(
        cls,
        points: Sequence[Tuple[int, int]],
        tp: int = 16,
        dp: int = 16,
        precision: Precision = Precision.FP16,
    ) -> "ConfigGrid":
        """Grid for ``(hidden, slb)`` overlap-sweep points (B = 1)."""
        hidden = _column([p[0] for p in points], "hidden")
        seq_len = _column([p[1] for p in points], "seq_len")
        tp_col = np.full_like(hidden, tp)
        num_heads = np.maximum(tp_col, np.maximum(1, hidden // 128))
        return cls(
            hidden=hidden,
            seq_len=seq_len,
            batch=np.ones_like(hidden),
            tp=tp_col,
            dp=np.full_like(hidden, dp),
            num_heads=num_heads,
            ffn_dim=4 * hidden,
            precision=precision,
        )

    @classmethod
    def from_models(
        cls,
        pairs: Sequence[Tuple[ModelConfig, ParallelConfig]],
    ) -> "ConfigGrid":
        """Grid from explicit ``(model, parallel)`` pairs.

        Raises:
            ValueError: if the pairs mix precisions (the batch engine
                evaluates one dtype per grid; callers fall back to the
                scalar path).
        """
        if not pairs:
            raise ValueError("from_models needs at least one pair")
        precisions = {model.precision for model, _ in pairs}
        if len(precisions) > 1:
            raise ValueError(
                "mixed precisions in one grid; use the scalar engine"
            )
        return cls(
            hidden=[m.hidden for m, _ in pairs],
            seq_len=[m.seq_len for m, _ in pairs],
            batch=[m.batch for m, _ in pairs],
            tp=[p.tp for _, p in pairs],
            dp=[p.dp for _, p in pairs],
            num_heads=[m.num_heads for m, _ in pairs],
            ffn_dim=[m.ffn_dim for m, _ in pairs],
            precision=precisions.pop(),
        )

    def subset(self, mask: np.ndarray) -> "ConfigGrid":
        """Sub-grid selected by a boolean mask."""
        return replace(
            self,
            hidden=self.hidden[mask],
            seq_len=self.seq_len[mask],
            batch=self.batch[mask],
            tp=self.tp[mask],
            dp=self.dp[mask],
            num_heads=self.num_heads[mask],
            ffn_dim=self.ffn_dim[mask],
        )

    def key(self) -> tuple:
        """Hash/cache-friendly content key (plain Python scalars)."""
        return (
            tuple(self.hidden.tolist()),
            tuple(self.seq_len.tolist()),
            tuple(self.batch.tolist()),
            tuple(self.tp.tolist()),
            tuple(self.dp.tolist()),
            tuple(self.num_heads.tolist()),
            tuple(self.ffn_dim.tolist()),
            self.precision.value,
        )

    def at(self, index: int) -> Tuple[ModelConfig, ParallelConfig]:
        """Scalar ``(model, parallel)`` exemplar of one grid entry."""
        model = ModelConfig(
            name=f"batch-{index}",
            hidden=int(self.hidden[index]),
            seq_len=int(self.seq_len[index]),
            batch=int(self.batch[index]),
            num_heads=int(self.num_heads[index]),
            ffn_dim=int(self.ffn_dim[index]),
            precision=self.precision,
        )
        parallel = ParallelConfig(tp=int(self.tp[index]),
                                  dp=int(self.dp[index]))
        return model, parallel


# -- slot mirror of repro.models.layers ---------------------------------


@dataclass(frozen=True, eq=False)
class _GemmSlot:
    name: str
    m: np.ndarray
    n: np.ndarray
    k: np.ndarray
    batch: Union[np.ndarray, int] = 1
    has_weights: bool = True
    backward: bool = False


@dataclass(frozen=True, eq=False)
class _EwSlot:
    name: str
    elements: np.ndarray
    rw_factor: float
    kind: str


@dataclass(frozen=True, eq=False)
class _CommSlot:
    name: str
    nbytes: np.ndarray
    group: str  # "tp" | "dp"
    overlappable: bool


_Slot = Union[_GemmSlot, _EwSlot, _CommSlot]


def _attention_forward_slots(grid: ConfigGrid,
                             tp_parallel: bool) -> List[_Slot]:
    tokens = grid.batch * grid.seq_len
    heads = grid.num_heads // grid.tp
    head_dim = grid.hidden // grid.num_heads
    sl = grid.seq_len
    act_bytes = grid.precision.bytes * grid.batch * grid.seq_len * grid.hidden
    bsl_h = grid.batch * grid.seq_len * grid.hidden
    slots: List[_Slot] = [
        _EwSlot("attn.ln", bsl_h, 3.0, "layernorm"),
        _GemmSlot("attn.qkv", m=tokens, k=grid.hidden,
                  n=3 * grid.hidden // grid.tp, batch=1),
        _GemmSlot("attn.scores", m=sl, n=sl, k=head_dim,
                  batch=grid.batch * heads, has_weights=False),
        _EwSlot("attn.softmax", grid.batch * heads * sl * sl, 3.0,
                "softmax"),
        _GemmSlot("attn.context", m=sl, n=head_dim, k=sl,
                  batch=grid.batch * heads, has_weights=False),
        _GemmSlot("attn.out_proj", m=tokens, k=grid.hidden // grid.tp,
                  n=grid.hidden),
    ]
    if tp_parallel:
        slots.append(_CommSlot("attn.ar_fwd", act_bytes, "tp", False))
    slots.append(_EwSlot("attn.residual", bsl_h, 3.0, "residual"))
    return slots


def _fc_forward_slots(grid: ConfigGrid, tp_parallel: bool) -> List[_Slot]:
    tokens = grid.batch * grid.seq_len
    ffn = grid.ffn_dim // grid.tp
    act_bytes = grid.precision.bytes * grid.batch * grid.seq_len * grid.hidden
    bsl_h = grid.batch * grid.seq_len * grid.hidden
    slots: List[_Slot] = [
        _EwSlot("fc.ln", bsl_h, 3.0, "layernorm"),
        _GemmSlot("fc.fc1", m=tokens, k=grid.hidden, n=ffn, batch=1),
        _EwSlot("fc.gelu", tokens * ffn, 2.0, "gelu"),
        _GemmSlot("fc.fc2", m=tokens, k=ffn, n=grid.hidden, batch=1),
    ]
    if tp_parallel:
        slots.append(_CommSlot("fc.ar_fwd", act_bytes, "tp", False))
    slots.append(_EwSlot("fc.residual", bsl_h, 3.0, "residual"))
    return slots


def _backward_slots(forward: List[_Slot], dp_parallel: bool,
                    sublayer: str, weight_bytes: np.ndarray) -> List[_Slot]:
    """Mechanical mirror of :func:`repro.models.layers._sublayer_backward`."""
    slots: List[_Slot] = []
    for slot in reversed(forward):
        if isinstance(slot, _GemmSlot):
            slots.append(_GemmSlot(f"{slot.name}.ig", m=slot.m, n=slot.k,
                                   k=slot.n, batch=slot.batch,
                                   has_weights=slot.has_weights,
                                   backward=True))
            slots.append(_GemmSlot(f"{slot.name}.wg", m=slot.k, n=slot.n,
                                   k=slot.m, batch=slot.batch,
                                   has_weights=slot.has_weights,
                                   backward=True))
        elif isinstance(slot, _EwSlot):
            slots.append(_EwSlot(f"{slot.name}.grad", slot.elements,
                                 slot.rw_factor, f"{slot.kind}_grad"))
        else:
            prefix = slot.name.split(".")[0]
            slots.append(_CommSlot(f"{prefix}.ar_bwd", slot.nbytes, "tp",
                                   False))
    if dp_parallel:
        slots.append(_CommSlot(f"{sublayer}.grad_ar", weight_bytes, "dp",
                               True))
    return slots


def _layer_slots(grid: ConfigGrid, tp_parallel: bool,
                 dp_parallel: bool) -> List[_Slot]:
    """One layer's forward + backward slot list for a parity partition."""
    attn_fwd = _attention_forward_slots(grid, tp_parallel)
    fc_fwd = _fc_forward_slots(grid, tp_parallel)
    attn_wbytes = grid.precision.bytes * (
        4 * grid.hidden * grid.hidden // grid.tp
    )
    fc_wbytes = grid.precision.bytes * (
        2 * grid.hidden * grid.ffn_dim // grid.tp
    )
    return (
        attn_fwd
        + fc_fwd
        + _backward_slots(fc_fwd, dp_parallel, "fc", fc_wbytes)
        + _backward_slots(attn_fwd, dp_parallel, "attention", attn_wbytes)
    )


def _slot_scalar(value, index: int) -> int:
    if isinstance(value, np.ndarray):
        return int(value[index])
    return int(value)


def _check_against_exemplar(slots: Sequence[_Slot], grid: ConfigGrid,
                            index: int = 0) -> None:
    """Cross-check the slot mirror against a real scalar trace.

    Runs once per parity partition; any structural drift between
    :mod:`repro.models.layers` and this module raises instead of
    silently producing wrong batched breakdowns.
    """
    model, parallel = grid.at(index)
    trace = layer_trace(model, parallel)
    if len(trace.ops) != len(slots):
        raise RuntimeError(
            f"batch slot structure diverged from layer_trace: "
            f"{len(slots)} slots vs {len(trace.ops)} ops"
        )
    for op, slot in zip(trace.ops, slots):
        ok = op.name == slot.name
        if ok and isinstance(op, GemmOp):
            ok = (
                isinstance(slot, _GemmSlot)
                and op.shape.m == _slot_scalar(slot.m, index)
                and op.shape.n == _slot_scalar(slot.n, index)
                and op.shape.k == _slot_scalar(slot.k, index)
                and op.shape.batch == _slot_scalar(slot.batch, index)
                and op.has_weights == slot.has_weights
                and (op.phase.value == "backward") == slot.backward
            )
        elif ok and isinstance(op, ElementwiseOp):
            ok = (
                isinstance(slot, _EwSlot)
                and op.elements == _slot_scalar(slot.elements, index)
                and op.rw_factor == slot.rw_factor
                and op.kind == slot.kind
            )
        elif ok and isinstance(op, CommOp):
            ok = (
                isinstance(slot, _CommSlot)
                and op.nbytes == _slot_scalar(slot.nbytes, index)
                and op.group.value == slot.group
                and op.overlappable == slot.overlappable
            )
        if not ok:
            raise RuntimeError(
                f"batch slot structure diverged from layer_trace at "
                f"{op.name!r} (slot {slot.name!r})"
            )


def _slot_kind(slot: _Slot) -> str:
    if isinstance(slot, _CommSlot):
        return (vectorized.KIND_OVERLAPPED if slot.overlappable
                else vectorized.KIND_SERIALIZED)
    return vectorized.KIND_COMPUTE


def _group_sizes(grid: ConfigGrid, slot: _CommSlot) -> np.ndarray:
    return grid.tp if slot.group == "tp" else grid.dp


def _reads_dp(slot: _Slot) -> bool:
    """Whether a slot's duration depends on the DP degree."""
    return isinstance(slot, _CommSlot) and slot.group == "dp"


@dataclass(frozen=True, eq=False)
class _DpFreeRows:
    """Runs of equal DP-free keys ``(H, SL, B, TP, heads, FFN)``.

    Attributes:
        starts: First row of each run (its representative).
        inverse: Run index of every row; ``None`` when every row is its
            own run and nothing needs compressing.
    """

    starts: np.ndarray
    inverse: Optional[np.ndarray]

    @property
    def count(self) -> int:
        return int(self.starts.size)

    def compress(self, value):
        """A per-row slot value restricted to the run representatives."""
        if self.inverse is None:
            return value
        array = np.asarray(value)
        return array[self.starts] if array.ndim else value

    def expand(self, times: np.ndarray, slots: int) -> np.ndarray:
        """Per-run stacked times of ``slots`` slots, gathered per row."""
        if self.inverse is None:
            return times
        return times.reshape(slots, self.count)[:, self.inverse].reshape(-1)


def _dp_free_rows(grid: ConfigGrid) -> _DpFreeRows:
    """Detect runs of rows whose DP-free slot shapes are all equal.

    Every slot shape except the DP group size of the gradient
    all-reduces is a function of ``(H, SL, B, TP, heads, FFN)``, and DP
    is the fastest-varying axis of :class:`~repro.core.gridplan.GridSpec`
    chunks, so consecutive rows repeat the same key.  The timing models
    are element-wise, so timing one row per run and gathering the
    results back is bit-identical to timing every row.  heads and FFN
    belong in the key: ``from_models`` grids can put models with equal
    (H, SL, B, TP) but different head counts on adjacent rows, and head
    count changes the attention GEMM shapes.
    """
    n = len(grid)
    change = np.ones(n, dtype=bool)
    if n > 1:
        change[1:] = False
        for col in (grid.hidden, grid.seq_len, grid.batch, grid.tp,
                    grid.num_heads, grid.ffn_dim):
            change[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(change)
    inverse = np.cumsum(change) - 1 if starts.size < n else None
    return _DpFreeRows(starts=starts, inverse=inverse)


def _slot_durations(slots: Sequence[_Slot], grid: ConfigGrid,
                    cluster: ClusterSpec,
                    timing: TimingModels) -> List[np.ndarray]:
    """Ground-truth per-slot duration arrays (vectorized timing models).

    Same-type slots are stacked into one flat vectorized call per kind
    (all GEMMs together, element-wise ops per jitter kind, collectives
    per overlap class and group): the timing formulas are element-wise,
    so the stacking changes the fixed NumPy overhead -- from per-slot to
    per-partition -- without touching any computed value.  Slots that
    do not read DP are timed on the DP-free run representatives only
    (:func:`_dp_free_rows`) and expanded back per row.  Stacks go
    through :func:`repro.sim.vectorized.stack_columns`, which reuses
    one scratch buffer per argument position across chunks; each stack
    is consumed by its timing-model call before the tag is reused.
    """
    n = int(grid.hidden.shape[0])
    rows = _dp_free_rows(grid)
    width = rows.count
    durations: List[Optional[np.ndarray]] = [None] * len(slots)

    def stack(tag: str, values: List[object],
              per_row: bool = False) -> np.ndarray:
        if per_row:
            return vectorized.stack_columns(tag, values, n)
        return vectorized.stack_columns(
            tag, [rows.compress(value) for value in values], width
        )

    def place(times: np.ndarray, indices: List[int],
              per_row: bool = False) -> None:
        if not per_row:
            times = rows.expand(times, len(indices))
        for row, i in enumerate(indices):
            durations[i] = times[row * n:(row + 1) * n]

    gemms = [i for i, slot in enumerate(slots)
             if isinstance(slot, _GemmSlot)]
    if gemms:
        times = vectorized.gemm_times(
            stack("gemm.m", [slots[i].m for i in gemms]),
            stack("gemm.n", [slots[i].n for i in gemms]),
            stack("gemm.k", [slots[i].k for i in gemms]),
            stack("gemm.batch", [slots[i].batch for i in gemms]),
            cluster.device, grid.precision, timing.gemm,
        )
        place(times, gemms)

    ew_groups: dict = {}
    for i, slot in enumerate(slots):
        if isinstance(slot, _EwSlot):
            ew_groups.setdefault((slot.kind, slot.rw_factor),
                                 []).append(i)
    for (kind, rw_factor), indices in ew_groups.items():
        times = vectorized.elementwise_times(
            stack("ew.elements", [slots[i].elements for i in indices]),
            cluster.device, grid.precision, rw_factor, kind,
            timing.elementwise,
        )
        place(times, indices)

    for overlapped in (False, True):
        for per_row in (False, True):
            comms = [i for i, slot in enumerate(slots)
                     if isinstance(slot, _CommSlot)
                     and slot.overlappable == overlapped
                     and _reads_dp(slot) == per_row]
            if not comms:
                continue
            times = vectorized.cluster_all_reduce_times(
                stack("comm.nbytes", [slots[i].nbytes for i in comms],
                      per_row),
                stack("comm.group", [_group_sizes(grid, slots[i])
                                     for i in comms], per_row),
                cluster, overlapped=overlapped,
            )
            place(times, comms, per_row)
    return durations


def _partitions(grid: ConfigGrid) -> Iterator[Tuple[np.ndarray, ConfigGrid,
                                                    bool, bool]]:
    """Split a grid into (TP > 1, DP > 1) parity partitions."""
    tp_par = grid.tp > 1
    dp_par = grid.dp > 1
    for tp_flag in (False, True):
        for dp_flag in (False, True):
            mask = (tp_par == tp_flag) & (dp_par == dp_flag)
            if mask.any():
                yield mask, grid.subset(mask), tp_flag, dp_flag


# -- batched breakdown --------------------------------------------------


@dataclass(frozen=True, eq=False)
class BatchBreakdown:
    """Per-config iteration-time breakdowns as parallel arrays.

    Array analogue of :class:`repro.sim.breakdown.Breakdown`: every
    derived quantity reproduces the scalar property on each entry.
    """

    compute_time: np.ndarray
    serialized_comm_time: np.ndarray
    overlapped_comm_time: np.ndarray
    iteration_time: np.ndarray

    def __len__(self) -> int:
        return int(self.iteration_time.shape[0])

    @property
    def exposed_comm_time(self) -> np.ndarray:
        """Overlappable comm not hidden under compute (Figure 3 slack)."""
        return np.maximum(
            0.0,
            self.iteration_time - self.compute_time
            - self.serialized_comm_time,
        )

    @property
    def serialized_comm_fraction(self) -> np.ndarray:
        """Fraction of the iteration spent in serialized collectives."""
        safe = np.where(self.iteration_time == 0, 1.0, self.iteration_time)
        return np.where(self.iteration_time == 0, 0.0,
                        self.serialized_comm_time / safe)

    @property
    def critical_comm_fraction(self) -> np.ndarray:
        """Serialized plus exposed comm as a fraction of the iteration."""
        safe = np.where(self.iteration_time == 0, 1.0, self.iteration_time)
        return np.where(
            self.iteration_time == 0, 0.0,
            (self.serialized_comm_time + self.exposed_comm_time) / safe,
        )

    @property
    def overlapped_pct_of_compute(self) -> np.ndarray:
        """Overlappable comm relative to compute (>= 1.0: exposed)."""
        safe = np.where(self.compute_time == 0, 1.0, self.compute_time)
        ratio = self.overlapped_comm_time / safe
        no_compute = np.where(self.overlapped_comm_time == 0, 0.0,
                              np.inf)
        return np.where(self.compute_time == 0, no_compute, ratio)

    def at(self, index: int) -> Breakdown:
        """Scalar :class:`Breakdown` of one grid entry."""
        return Breakdown(
            compute_time=float(self.compute_time[index]),
            serialized_comm_time=float(self.serialized_comm_time[index]),
            overlapped_comm_time=float(self.overlapped_comm_time[index]),
            iteration_time=float(self.iteration_time[index]),
        )


def _scatter(out: Tuple[np.ndarray, ...], mask: np.ndarray,
             parts: Tuple[np.ndarray, ...]) -> None:
    for target, part in zip(out, parts):
        target[mask] = part


def batch_execute(grid: ConfigGrid, cluster: ClusterSpec,
                  timing: TimingModels = DEFAULT_TIMING,
                  validate: bool = True) -> BatchBreakdown:
    """Ground-truth breakdowns for a whole grid at once, timing every
    slot that does not read DP once per run of equal DP-free rows.

    Equivalent to running :func:`repro.sim.executor.execute_trace` on
    ``layer_trace(*grid.at(i))`` for every ``i``, bit-for-bit.  Within
    each parity partition, all GEMMs, element-wise ops and TP-group
    all-reduces are timed on one representative per run of equal
    ``(H, SL, B, TP, heads, FFN)`` rows and gathered back per row; only
    the DP-group gradient all-reduces are timed on every row.

    Args:
        validate: Cross-check each parity partition's slot structure
            against a scalar exemplar trace (cheap; on by default).
    """
    n = len(grid)
    out = tuple(np.zeros(n, dtype=np.float64) for _ in range(4))
    for mask, sub, tp_flag, dp_flag in _partitions(grid):
        slots = _layer_slots(sub, tp_flag, dp_flag)
        if validate:
            _check_against_exemplar(slots, sub)
        durations = _slot_durations(slots, sub, cluster, timing)
        kinds = [_slot_kind(slot) for slot in slots]
        _scatter(out, mask, vectorized.closed_form_breakdown(kinds,
                                                             durations))
    return BatchBreakdown(*out)


def _project_slot(slot: _Slot, grid: ConfigGrid,
                  suite: OperatorModelSuite) -> np.ndarray:
    """Projected duration array for one slot (operator scaling laws)."""
    if isinstance(slot, _CommSlot):
        from repro.models.graph import CollectiveKind

        reference = suite.collective_references[CollectiveKind.ALL_REDUCE]
        group = _group_sizes(grid, slot)
        scale = (slot.nbytes / reference.nbytes) * (
            ((group - 1) / group) / _ring_factor(reference.group_size)
        )
        projected = reference.time * scale
        return np.where((group > 1) & (slot.nbytes > 0), projected, 0.0)
    try:
        base_op, base_time = suite.compute_reference[slot.name]
    except KeyError:
        raise KeyError(
            f"baseline profile has no operator named {slot.name!r}"
        ) from None
    if isinstance(slot, _GemmSlot):
        flops = 2 * np.asarray(slot.batch, dtype=np.int64) * slot.m \
            * slot.n * slot.k
        return base_time * flops / base_op.shape.flops
    return base_time * slot.elements / base_op.elements


def batch_project(grid: ConfigGrid, suite: OperatorModelSuite,
                  scenario: Optional[HardwareScenario] = None,
                  validate: bool = True) -> BatchBreakdown:
    """Projected breakdowns for a whole grid (the paper's method).

    Equivalent to ``suite.project_execution(layer_trace(*grid.at(i)))``
    per entry, with the optional Figure 12 hardware-scenario scaling
    (compute durations divided by ``compute_scale``, communication by
    ``network_scale``) applied to the projected durations.
    """
    n = len(grid)
    out = tuple(np.zeros(n, dtype=np.float64) for _ in range(4))
    for mask, sub, tp_flag, dp_flag in _partitions(grid):
        slots = _layer_slots(sub, tp_flag, dp_flag)
        if validate:
            _check_against_exemplar(slots, sub)
        durations = [_project_slot(slot, sub, suite) for slot in slots]
        if scenario is not None:
            durations = [
                duration / (scenario.network_scale
                            if isinstance(slot, _CommSlot)
                            else scenario.compute_scale)
                for slot, duration in zip(slots, durations)
            ]
        kinds = [_slot_kind(slot) for slot in slots]
        _scatter(out, mask, vectorized.closed_form_breakdown(kinds,
                                                             durations))
    return BatchBreakdown(*out)


def batch_overlap_roi(grid: ConfigGrid, cluster: ClusterSpec,
                      timing: TimingModels = DEFAULT_TIMING,
                      validate: bool = True
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """ROI compute/comm time arrays (Figure 11/13 numerator/denominator).

    Equivalent to :func:`repro.core.roi.overlap_roi_timing` per entry:
    sums the backprop weight-bearing IG/WG GEMM times and the
    overlappable gradient all-reduce times in trace order.  The GEMMs
    are timed once per run of equal DP-free rows, as in
    :func:`batch_execute`.

    Raises:
        ValueError: if any entry has DP = 1 (no overlappable comm; same
            contract as the scalar ROI extraction).
    """
    if (grid.dp <= 1).any():
        raise ValueError(
            "trace has no overlappable communication; the overlap ROI is "
            "only defined for data-parallel setups (DP > 1)"
        )
    n = len(grid)
    compute = np.zeros(n, dtype=np.float64)
    comm = np.zeros(n, dtype=np.float64)
    for mask, sub, tp_flag, dp_flag in _partitions(grid):
        slots = _layer_slots(sub, tp_flag, dp_flag)
        if validate:
            _check_against_exemplar(slots, sub)
        # The GEMMs never read DP: time them once per DP-free run.
        rows = _dp_free_rows(sub)
        compute_part = np.zeros(rows.count, dtype=np.float64)
        comm_part = np.zeros(len(sub), dtype=np.float64)
        for slot in slots:
            if isinstance(slot, _GemmSlot) and slot.backward \
                    and slot.has_weights:
                compute_part = compute_part + vectorized.gemm_times(
                    rows.compress(slot.m), rows.compress(slot.n),
                    rows.compress(slot.k), rows.compress(slot.batch),
                    cluster.device, sub.precision, timing.gemm,
                )
            elif isinstance(slot, _CommSlot) and slot.overlappable:
                comm_part = comm_part + vectorized.cluster_all_reduce_times(
                    slot.nbytes, _group_sizes(sub, slot), cluster,
                    overlapped=True,
                )
        compute[mask] = rows.expand(compute_part, 1)
        comm[mask] = comm_part
    return compute, comm


def serialized_fractions_for_pairs(
    pairs: Sequence[Tuple[ModelConfig, ParallelConfig]],
    cluster: ClusterSpec,
    timing: TimingModels = DEFAULT_TIMING,
    engine: str = "auto",
) -> List[float]:
    """Serialized-comm fractions for explicit ``(model, parallel)`` pairs.

    Batch path with automatic scalar fallback (mixed precisions or other
    grid-ineligible inputs); ``engine="batch"`` re-raises instead of
    falling back, ``engine="scalar"`` skips the batch path entirely.
    """
    if engine != "scalar":
        try:
            grid = ConfigGrid.from_models(pairs)
            breakdown = batch_execute(grid, cluster, timing)
            return [float(f) for f in breakdown.serialized_comm_fraction]
        except Exception:
            if engine == "batch":
                raise
    from repro.sim.executor import execute_trace

    return [
        execute_trace(layer_trace(model, parallel), cluster,
                      timing).breakdown.serialized_comm_fraction
        for model, parallel in pairs
    ]
