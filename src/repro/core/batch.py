"""Batch projection engine: whole sweep grids as NumPy arrays.

The scalar path pays a per-configuration Python tax: every point of a
design-space sweep builds a per-op :class:`~repro.models.graph.Trace`
and runs the discrete-event scheduler.  But a Transformer layer's trace
has *fixed structure* for a given parallelism parity -- the same ~34
operators in the same order, only the shapes change -- so a whole grid
can be evaluated at once:

* :class:`ConfigGrid` holds the (H, SL, B, TP, DP) columns as int64
  arrays, under the attribute names of
  :class:`~repro.models.layers.LayerDims`;
* every row takes one op list, the operator table in
  :mod:`repro.models.layers` evaluated on the grid's columns with both
  TP and DP all-reduces (:func:`~repro.models.layers.layer_records`) --
  the same table the scalar trace is built from, so there is no second
  copy to drift -- and a whole grid is evaluated in one pass whatever
  its mix of ``(TP > 1, DP > 1)`` parities (:func:`_layer_ops`);
* per-op duration arrays come from the vectorized timing mirrors in
  :mod:`repro.sim.vectorized` (ground truth) or from the fitted
  :class:`~repro.core.projection.OperatorModelSuite` scaling laws
  (projection), reproducing the scalar engines bit-for-bit; the timing
  mirrors take one stacked call per operator family -- all GEMMs, all
  element-wise ops (their kinds and read/write factors as per-entry
  arrays) and all all-reduces (their interference as a mask); see
  :func:`_time_groups`;
* evaluation has two stages.  Data parallelism changes only the
  gradient all-reduces, so the **key stage** (:class:`DurationTable`)
  times every other op (all GEMMs, element-wise ops and TP
  all-reduces) once per DP-free key ``(H, SL, B, TP, heads, FFN)`` --
  DP = 1 and DP > 1 rows alike -- and the two DP-group all-reduces once
  per row of a grid, or once per ``(bytes, DP)`` pair of a sweep's
  chunks.  The **row stage** gathers every row's durations from that
  table and runs the schedule.  :func:`batch_execute` on its own runs
  both stages over the grid's runs of equal DP-free rows
  (:func:`_dp_free_rows`); a streamed sweep builds one table per block
  of chunks (:meth:`DurationTable.of_chunks`) and runs only the row
  stage per chunk;
* the two-stream schedule collapses to closed-form prefix sums
  (:func:`repro.sim.vectorized.closed_form_breakdown`): serialized comm
  adds to the critical path, overlappable DP all-reduces expose only
  ``max(0, comm - remaining_compute)`` slack.  It takes the per-key
  durations and the row map, so the blocking chain runs once per key
  and only the DP all-reduce chain per row; only the checker's per-op
  view (:func:`_slot_durations`) gathers durations back per row.

The scalar engine stays the reference implementation, the path for
irregular traces (multi-layer pipelines, MoE, mixed precisions) and the
only path of the paper's experiments that time a few dozen points
(Figures 10-13, Table 2), where NumPy's import would cost more than the
grid saves; checker layer 4 (:mod:`repro.sim.checker`) compares the two
engines op by op.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro._frozen import Frozen
from repro.hardware.cluster import ClusterSpec
from repro.hardware.specs import Precision
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.models.layers import (
    COMM,
    ELEMENTWISE,
    GEMM,
    CollectiveKind,
    CommGroup,
    OpRecord,
    layer_records,
)
from repro.sim import vectorized

if TYPE_CHECKING:
    from repro.core.evolution import HardwareScenario
    from repro.core.hyperparams import ModelConfig, ParallelConfig
    from repro.core.projection import OperatorModelSuite
    from repro.sim.breakdown import Breakdown

__all__ = [
    "ConfigGrid",
    "BatchBreakdown",
    "DurationTable",
    "batch_execute",
    "batch_project",
]


def _column(values, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    if array.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return array


class ConfigGrid(Frozen):
    """Arrays of sweep configurations, one entry per grid point.

    All columns share one length; ``precision`` is uniform across the
    grid (mixed-precision grids fall back to the scalar engine).
    """

    __slots__ = ("hidden", "seq_len", "batch", "tp", "dp", "num_heads",
                 "ffn_dim", "precision")
    # Array fields: equality is identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    hidden: np.ndarray
    seq_len: np.ndarray
    batch: np.ndarray
    tp: np.ndarray
    dp: np.ndarray
    num_heads: np.ndarray
    ffn_dim: np.ndarray
    precision: Precision

    def __init__(self, hidden, seq_len, batch, tp, dp, num_heads, ffn_dim,
                 precision: Precision = Precision.FP16) -> None:
        columns = {
            "hidden": _column(hidden, "hidden"),
            "seq_len": _column(seq_len, "seq_len"),
            "batch": _column(batch, "batch"),
            "tp": _column(tp, "tp"),
            "dp": _column(dp, "dp"),
            "num_heads": _column(num_heads, "num_heads"),
            "ffn_dim": _column(ffn_dim, "ffn_dim"),
        }
        lengths = {a.shape[0] for a in columns.values()}
        if len(lengths) > 1:
            raise ValueError(
                f"config columns have mismatched lengths: {sorted(lengths)}"
            )
        for name, array in columns.items():
            if (array < 1).any():
                raise ValueError(f"{name} entries must be >= 1")
        if (columns["hidden"] % columns["num_heads"] != 0).any():
            raise ValueError("hidden must be divisible by num_heads")
        if (columns["num_heads"] % columns["tp"] != 0).any():
            raise ValueError("num_heads must be divisible by TP")
        if (columns["ffn_dim"] % columns["tp"] != 0).any():
            raise ValueError("ffn_dim must be divisible by TP")
        self._set(precision=precision, **columns)

    def __len__(self) -> int:
        return int(self.hidden.shape[0])

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

    def at(self, index: int) -> Tuple[ModelConfig, ParallelConfig]:
        """Scalar ``(model, parallel)`` pair of one grid entry."""
        from repro.core.hyperparams import ModelConfig, ParallelConfig

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


# -- timing the op table on a grid ----------------------------------------


def _slot_kind(op: OpRecord) -> str:
    if op.family == COMM:
        return (vectorized.KIND_OVERLAPPED if op.overlappable
                else vectorized.KIND_SERIALIZED)
    return vectorized.KIND_COMPUTE


def _group_sizes(grid: ConfigGrid, op: OpRecord) -> np.ndarray:
    return grid.tp if op.group is CommGroup.TP else grid.dp


def _reads_dp(op: OpRecord) -> bool:
    """Whether the op's duration depends on DP: only the DP-group
    gradient all-reduces' do."""
    return op.family == COMM and op.group is CommGroup.DP


class _DpFreeRows:
    """Rows and the DP-free keys ``(H, SL, B, TP, heads, FFN)`` they map to.

    The rows are the entries an op that reads DP is timed on.  The op
    list holds either one entry per row, each key represented by the
    first row of its run (:func:`_dp_free_rows`), or one entry per key,
    when ``starts`` is ``None`` (:meth:`DurationTable.of_chunks`, whose
    rows are ``(bytes, DP)`` pairs).

    Attributes:
        starts: Op-list entry of each key; ``None`` when the op list
            holds one entry per key.
        inverse: Key index of every row; ``None`` when every row is its
            own key.
        dp: DP degree of every row, the DP-group all-reduces' group.
        count: Number of keys.
    """

    __slots__ = ("starts", "inverse", "dp", "count")

    def __init__(self, starts: Optional[np.ndarray],
                 inverse: Optional[np.ndarray], dp: np.ndarray,
                 count: int) -> None:
        self.starts = starts
        self.inverse = inverse
        self.dp = dp
        self.count = count

    @property
    def size(self) -> int:
        """Number of rows."""
        return int(self.dp.shape[0])

    def compress(self, value):
        """An op field with one entry per key."""
        if self.starts is None or self.inverse is None:
            return value
        array = np.asarray(value)
        return array[self.starts] if array.ndim else value

    def per_row(self, value):
        """An op field with one entry per row."""
        if self.starts is not None or self.inverse is None:
            return value
        array = np.asarray(value)
        return array[self.inverse] if array.ndim else value

    def expand(self, values: np.ndarray) -> np.ndarray:
        """Per-key values gathered per row."""
        return values if self.inverse is None else values[self.inverse]


def _dp_free_rows(grid: ConfigGrid) -> _DpFreeRows:
    """Detect runs of rows whose DP-free op shapes are all equal.

    Every op shape except the DP group size of the gradient
    all-reduces is a function of ``(H, SL, B, TP, heads, FFN)``, and DP
    is the fastest-varying axis of :class:`~repro.core.gridplan.GridSpec`
    chunks, so consecutive rows repeat the same key; a run spans DP = 1
    and DP > 1 rows, since every row shares one op list.  The timing
    models are element-wise, so timing one row per run is bit-identical
    to timing every row.  heads and FFN belong in the key:
    ``from_models`` grids can put models with equal (H, SL, B, TP) but
    different head counts on adjacent rows, and head count changes the
    attention GEMM shapes.
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
    return _DpFreeRows(starts=starts, inverse=inverse, dp=grid.dp,
                       count=int(starts.size))


#: Op fields that are one constant per op; :func:`_time_groups` repeats
#: them to a per-entry array.
_CONSTANT_FIELDS = ("rw_factor", "overlappable")


def _op_column(op: OpRecord, field: str, grid: ConfigGrid,
               rows: _DpFreeRows):
    """One op's ``field`` (``"group"``: its group sizes): per row for
    an op that reads DP, else per key."""
    if _reads_dp(op):
        return rows.dp if field == "group" else rows.per_row(
            getattr(op, field))
    return rows.compress(_group_sizes(grid, op) if field == "group"
                         else getattr(op, field))


def _time_groups(ops: Sequence[OpRecord], grid: ConfigGrid,
                 rows: _DpFreeRows, evaluate: Callable
                 ) -> List[np.ndarray]:
    """Time an op list family by family, one stacked call per family.

    The GEMMs, the element-wise ops and the all-reduces each form one
    stacked timing call: per-op parameters (an element-wise op's kind
    and read/write factor, a collective's interference) become
    per-entry arrays.  The timing formulas are element-wise, so
    stacking changes the fixed NumPy overhead -- from per-op to per-
    family -- without touching any computed value.  An op that does not
    read DP is timed once per DP-free key; a DP-group all-reduce on
    every row.

    Int fields are stacked through
    :func:`repro.sim.vectorized.stack_columns`.

    Args:
        grid: The grid ``ops`` were evaluated on.
        rows: The rows and their DP-free keys.
        evaluate: ``evaluate(family, column)`` -> the flat duration
            array of the family's stacked ops.  ``column(field)``
            stacks the family's ``field`` values: ``"group"`` gives
            their group sizes, ``"kind"`` a
            :class:`~repro.sim.vectorized.Choice` of their kinds, and
            ``"rw_factor"`` and ``"overlappable"`` per-entry arrays.

    Returns:
        Per-op duration arrays: one entry per key, or per row for the
        ops that read DP.
    """
    n = rows.size
    families: Dict[str, List[int]] = {}
    for i, op in enumerate(ops):
        families.setdefault(op.family, []).append(i)
    durations: List[np.ndarray] = [None] * len(ops)
    for family, indices in families.items():
        members = [ops[i] for i in indices]
        widths = [n if _reads_dp(op) else rows.count for op in members]

        def column(field: str, members=members, widths=widths):
            if field == "kind":
                kinds = tuple(dict.fromkeys(op.kind for op in members))
                return vectorized.Choice(kinds, np.repeat(
                    [kinds.index(op.kind) for op in members], widths))
            if field in _CONSTANT_FIELDS:
                return np.repeat([getattr(op, field) for op in members],
                                 widths)
            return vectorized.stack_columns([
                _op_column(op, field, grid, rows) for op in members],
                widths)

        times = evaluate(family, column)
        edges = np.cumsum([0] + widths).tolist()
        for slot, i in enumerate(indices):
            durations[i] = times[edges[slot]:edges[slot + 1]]
    return durations


def _op_durations(ops: Sequence[OpRecord], grid: ConfigGrid,
                  rows: _DpFreeRows, cluster: ClusterSpec,
                  timing: TimingModels) -> List[np.ndarray]:
    """Ground-truth per-op duration arrays (vectorized timing models):
    one entry per DP-free key, or per row for the ops that read DP.
    This is the key stage of :func:`batch_execute`."""
    device, precision = cluster.device, grid.precision

    def evaluate(family: str, column: Callable) -> np.ndarray:
        if family == GEMM:
            return vectorized.gemm_times(
                column("m"), column("n"), column("k"), column("batch"),
                device, precision, timing.gemm,
            )
        if family == ELEMENTWISE:
            return vectorized.elementwise_times(
                column("elements"), device, precision, column("rw_factor"),
                column("kind"), timing.elementwise,
            )
        return vectorized.cluster_all_reduce_times(
            column("nbytes"), column("group"), cluster,
            overlapped=column("overlappable"),
        )

    return _time_groups(ops, grid, rows, evaluate)


def _schedule(ops: Sequence[OpRecord], durations: Sequence[np.ndarray],
              rows: _DpFreeRows) -> Tuple[np.ndarray, ...]:
    """The closed-form breakdown of per-key (or, for the ops that read
    DP, per-row) durations, one entry per row."""
    return vectorized.closed_form_breakdown(
        [_slot_kind(op) for op in ops], durations, rows.inverse,
        [_reads_dp(op) for op in ops])


def _slot_durations(ops: Sequence[OpRecord], grid: ConfigGrid,
                    cluster: ClusterSpec,
                    timing: TimingModels) -> List[np.ndarray]:
    """Per-op duration arrays with one entry per row: the per-op view
    of :func:`_op_durations` that the differential checker compares
    against the scalar engine."""
    rows = _dp_free_rows(grid)
    return [duration if _reads_dp(op) else rows.expand(duration)
            for op, duration in zip(ops, _op_durations(ops, grid, rows,
                                                       cluster, timing))]


# -- batched breakdown --------------------------------------------------


class BatchBreakdown(Frozen):
    """Per-config iteration-time breakdowns as parallel arrays.

    Array analogue of :class:`repro.sim.breakdown.Breakdown`: every
    derived quantity reproduces the scalar property on each entry.
    """

    __slots__ = ("compute_time", "serialized_comm_time",
                 "overlapped_comm_time", "iteration_time")
    # Array fields: equality is identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    compute_time: np.ndarray
    serialized_comm_time: np.ndarray
    overlapped_comm_time: np.ndarray
    iteration_time: np.ndarray

    def __init__(self, compute_time: np.ndarray,
                 serialized_comm_time: np.ndarray,
                 overlapped_comm_time: np.ndarray,
                 iteration_time: np.ndarray) -> None:
        self._set(compute_time=compute_time,
                  serialized_comm_time=serialized_comm_time,
                  overlapped_comm_time=overlapped_comm_time,
                  iteration_time=iteration_time)

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
        from repro.sim.breakdown import Breakdown

        return Breakdown(
            compute_time=float(self.compute_time[index]),
            serialized_comm_time=float(self.serialized_comm_time[index]),
            overlapped_comm_time=float(self.overlapped_comm_time[index]),
            iteration_time=float(self.iteration_time[index]),
        )


def _layer_ops(grid: ConfigGrid) -> List[OpRecord]:
    """Every row's op list: the widest one, with TP and DP all-reduces.

    A collective over a one-device group times as exactly 0.0, in the
    timing models and in projection alike, and a zero-duration slot
    leaves every closed-form sum and maximum bit-for-bit unchanged
    (durations are non-negative, so an async chain of zeros never
    outlasts the blocking chain).  A row with TP = 1 or DP = 1 thus gets
    the same bits as from its own parity's shorter op list, and rows of
    every ``(TP > 1, DP > 1)`` parity share one evaluation.
    """
    return layer_records(grid, True, True)


class DurationTable:
    """Per-op durations of a set of DP-free keys: the key stage of
    :func:`batch_execute`.

    Every op that does not read DP is timed once per key ``(H, SL, B,
    TP, heads, FFN)``.  The table's rows are those of one grid
    (:meth:`of_grid`) or of consecutive sweep chunks
    (:meth:`of_chunks`), in order; a row's key index never decreases,
    so a range of rows reads one contiguous range of keys.  The two
    DP-group all-reduces are timed once per row of a grid, and once per
    ``(bytes, DP)`` pair of a sweep's chunks.  The table is timed on
    first use, inside the :func:`batch_execute` call that first reads
    it; every later call only gathers (:meth:`breakdown`).

    Attributes:
        cluster: The cluster the table is timed on.
        timing: The timing models it is timed with.
    """

    __slots__ = ("cluster", "timing", "_ops", "_grid", "_pairs",
                 "_row_keys", "_row_pairs", "_kinds", "_per_row",
                 "_size", "_durations")

    def __init__(self, ops: Sequence[OpRecord], grid: ConfigGrid,
                 pairs: _DpFreeRows, row_keys: Optional[np.ndarray],
                 row_pairs: Optional[np.ndarray], cluster: ClusterSpec,
                 timing: TimingModels) -> None:
        """``ops`` evaluated on ``grid``; ``pairs``: the entries the ops
        that read DP are timed on; ``row_keys`` and ``row_pairs``: the
        key and the pair of every row (``None``: the identity)."""
        self.cluster = cluster
        self.timing = timing
        self._ops = ops
        self._grid = grid
        self._pairs = pairs
        self._row_keys = row_keys
        self._row_pairs = row_pairs
        self._size = pairs.size if row_pairs is None else len(row_pairs)
        self._kinds = [_slot_kind(op) for op in ops]
        self._per_row = [_reads_dp(op) for op in ops]
        self._durations: Optional[List[np.ndarray]] = None

    @classmethod
    def of_grid(cls, grid: ConfigGrid, cluster: ClusterSpec,
                timing: TimingModels) -> "DurationTable":
        """Table over one grid's rows, keyed by its runs of equal
        DP-free rows (:func:`_dp_free_rows`)."""
        rows = _dp_free_rows(grid)
        return cls(_layer_ops(grid), grid, rows, rows.inverse, None,
                   cluster, timing)

    @classmethod
    def of_chunks(cls, grids: Sequence[ConfigGrid],
                  offsets: Sequence[np.ndarray], dp_axis: Sequence[int],
                  cluster: ClusterSpec,
                  timing: TimingModels) -> "DurationTable":
        """Table over the rows of consecutive sweep chunks, in order.

        ``offsets[i]`` holds the raw offsets of the rows of
        ``grids[i]`` in a :class:`~repro.core.gridplan.GridSpec` whose
        DP axis is ``dp_axis`` (the fastest-varying one), increasing
        across the grids.  A row's key is its offset floor-divided by
        the length of the DP axis and its DP index the remainder.  The
        op list is evaluated once per key, on its first row.  A DP-group
        all-reduce's duration depends only on its bytes and its group,
        so keys with equal DP all-reduce bytes form one class, and the
        two are timed once per class and DP value.
        """
        raw = np.concatenate(offsets)
        ids, dp_index = np.divmod(raw, len(dp_axis))
        change = np.ones(len(ids), dtype=bool)
        np.not_equal(ids[1:], ids[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        columns = {
            name: np.concatenate([getattr(grid, name)
                                  for grid in grids])[starts]
            for name in ("hidden", "seq_len", "batch", "tp", "dp",
                         "num_heads", "ffn_dim")
        }
        keys = ConfigGrid(precision=grids[0].precision, **columns)
        ops = _layer_ops(keys)
        classes, key_class = vectorized._distinct_rows(*(
            np.broadcast_to(op.nbytes, len(keys)).astype(np.int64)
            for op in ops if _reads_dp(op)))
        # Any key of a class has the class's bytes.
        class_key = np.empty(len(classes), dtype=np.intp)
        class_key[key_class] = np.arange(len(keys))
        dp_values = np.array(dp_axis, dtype=np.int64)
        pairs = _DpFreeRows(starts=None,
                            inverse=np.repeat(class_key, len(dp_values)),
                            dp=np.tile(dp_values, len(classes)),
                            count=len(keys))
        row_keys = np.cumsum(change) - 1
        row_pairs = key_class[row_keys] * len(dp_values) + dp_index
        return cls(ops, keys, pairs, row_keys, row_pairs, cluster, timing)

    @property
    def size(self) -> int:
        """Number of rows."""
        return self._size

    def breakdown(self, start: int, stop: int) -> Tuple[np.ndarray, ...]:
        """The row stage: the closed-form breakdown of rows
        ``[start, stop)``, gathered from the table."""
        if self._durations is None:
            self._durations = _op_durations(self._ops, self._grid,
                                            self._pairs, self.cluster,
                                            self.timing)
            # Timed: the op list and the keys are no longer needed.
            self._ops = self._grid = self._pairs = None
        rows = slice(start, stop)
        keys = rows if self._row_keys is None else self._row_keys[rows]
        pairs = rows if self._row_pairs is None else self._row_pairs[rows]
        inverse = None
        if self._row_keys is not None and stop > start:
            first = int(keys[0])
            inverse = keys - first
            keys = slice(first, int(keys[-1]) + 1)
        return vectorized.closed_form_breakdown(
            self._kinds,
            [duration[pairs if per_row else keys] for duration, per_row
             in zip(self._durations, self._per_row)],
            inverse, self._per_row)


def batch_execute(grid: ConfigGrid, cluster: ClusterSpec,
                  timing: TimingModels = DEFAULT_TIMING,
                  table: Optional[DurationTable] = None,
                  start: int = 0) -> BatchBreakdown:
    """Ground-truth breakdowns for a whole grid in one pass.

    Equivalent to running :func:`repro.sim.executor.execute_trace` on
    ``layer_trace(*grid.at(i))`` for every ``i``, bit-for-bit.  Every
    row takes the same op list (:func:`_layer_ops`).  Two stages: the
    key stage (:class:`DurationTable`) times all GEMMs, element-wise ops
    and TP-group all-reduces once per DP-free key ``(H, SL, B, TP,
    heads, FFN)`` -- keys that span DP = 1 and DP > 1 rows -- and the
    DP-group gradient all-reduces once per row; the row stage gathers
    every row's durations and runs the closed-form schedule, whose
    blocking chain also runs once per key.

    Args:
        table: A table already holding this grid's rows, as rows
            ``[start, start + len(grid))``, and timed for ``cluster``
            and ``timing``; the call then runs the row stage only.
            Default: the key stage over the grid's own runs of equal
            DP-free rows.

    Raises:
        ValueError: if ``table`` does not hold those rows or was timed
            for another cluster or timing.
    """
    if table is None:
        table = DurationTable.of_grid(grid, cluster, timing)
    elif ((table.cluster is not cluster and table.cluster != cluster)
          or (table.timing is not timing and table.timing != timing)
          or not 0 <= start <= table.size - len(grid)):
        raise ValueError("the duration table does not hold this grid's "
                         "rows for this cluster and timing")
    return BatchBreakdown(*table.breakdown(start, start + len(grid)))


def _project_slot(op: OpRecord, grid: ConfigGrid,
                  suite: OperatorModelSuite) -> np.ndarray:
    """Projected duration array for one op (operator scaling laws)."""
    if op.family == COMM:
        from repro.core.projection import _ring_factor

        reference = suite.collective_references[CollectiveKind.ALL_REDUCE]
        group = _group_sizes(grid, op)
        scale = (op.nbytes / reference.nbytes) * (
            ((group - 1) / group) / _ring_factor(reference.group_size)
        )
        projected = reference.time * scale
        return np.where((group > 1) & (op.nbytes > 0), projected, 0.0)
    try:
        base_op, base_time = suite.compute_reference[op.name]
    except KeyError:
        raise KeyError(
            f"baseline profile has no operator named {op.name!r}"
        ) from None
    if op.family == GEMM:
        flops = 2 * np.asarray(op.batch, dtype=np.int64) * op.m * op.n * op.k
        return base_time * flops / base_op.shape.flops
    return base_time * op.elements / base_op.elements


def batch_project(grid: ConfigGrid, suite: OperatorModelSuite,
                  scenario: Optional[HardwareScenario] = None
                  ) -> BatchBreakdown:
    """Projected breakdowns for a whole grid (the paper's method).

    Equivalent to ``suite.project_execution(layer_trace(*grid.at(i)))``
    per entry, with the optional Figure 12 hardware-scenario scaling
    (compute durations divided by ``compute_scale``, communication by
    ``network_scale``) applied to the projected durations.
    """
    ops = _layer_ops(grid)
    durations = [_project_slot(op, grid, suite) for op in ops]
    if scenario is not None:
        durations = [
            duration / (scenario.network_scale if op.family == COMM
                        else scenario.compute_scale)
            for op, duration in zip(ops, durations)
        ]
    kinds = [_slot_kind(op) for op in ops]
    return BatchBreakdown(*vectorized.closed_form_breakdown(kinds,
                                                            durations))
