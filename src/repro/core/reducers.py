"""Online, order-independent reducers for streaming sweeps.

A million-point design-space sweep must come back as kilobytes, not as a
million breakdown rows.  Each reducer here folds one evaluated chunk
(:class:`EvaluatedChunk`) into a compact, JSON-serializable *partial
state*, and merges partial states associatively, so a process-pool sweep
can reduce chunks wherever they were evaluated and combine the pieces in
any grouping.

Determinism is a hard contract: for a fixed grid, every reducer's final
output is **bit-identical** regardless of chunk size or arrival order.

* Selection reducers (:class:`TopK`, :class:`ParetoFront`,
  :class:`ArgExtrema`, :class:`Collect`) order candidates by a strict
  total order -- metric value first, unique raw-grid offset as the tie
  breaker -- so k-best / non-dominated / extrema selection is associative
  and commutative.
* :class:`Histogram` keeps integer bin counts plus a Shewchuk
  exact-partials accumulator for the running sum: the represented sum is
  *exact*, so the final correctly-rounded mean is independent of how the
  inputs were grouped -- a chunked fold reproduces a single
  whole-grid fold bit for bit.

Metric names accepted everywhere: the four stored breakdown columns plus
the derived properties of :class:`~repro.core.batch.BatchBreakdown`
(:data:`METRICS`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, \
    Sequence, Tuple

import numpy as np

from repro._frozen import Frozen
from repro.core.batch import BatchBreakdown

if TYPE_CHECKING:
    from repro.core.bounds import ChunkBounds

__all__ = [
    "METRICS",
    "metric_values",
    "EvaluatedChunk",
    "Reducer",
    "TopK",
    "ParetoFront",
    "Histogram",
    "ArgExtrema",
    "Collect",
    "exact_sum_add",
    "exact_sum_merge",
    "exact_sum_value",
]

#: Metric names resolvable against a :class:`BatchBreakdown`.
METRICS: Tuple[str, ...] = (
    "compute_time",
    "serialized_comm_time",
    "overlapped_comm_time",
    "iteration_time",
    "exposed_comm_time",
    "serialized_comm_fraction",
    "critical_comm_fraction",
)

#: Sweep columns echoed into reducer outputs for each reported config.
_CONFIG_COLUMNS = ("hidden", "seq_len", "batch", "tp", "dp")


def metric_values(name: str, breakdown: BatchBreakdown) -> np.ndarray:
    """The named metric as a per-config array.

    Raises:
        KeyError: for unknown metric names (lists the known ones).
    """
    if name not in METRICS:
        raise KeyError(f"unknown metric {name!r}; known: {list(METRICS)}")
    return np.asarray(getattr(breakdown, name), dtype=np.float64)


class EvaluatedChunk(Frozen):
    """One evaluated grid chunk, as reducers consume it.

    Attributes:
        offsets: Raw-product offset of each row (unique, deterministic).
        columns: The five sweep columns, parallel to ``offsets``.
        breakdown: Per-row breakdowns from the batch engine.
    """

    __slots__ = ("offsets", "columns", "breakdown")
    # Array fields: equality is identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    offsets: np.ndarray
    columns: Mapping[str, np.ndarray]
    breakdown: BatchBreakdown

    def __init__(self, offsets: np.ndarray,
                 columns: Mapping[str, np.ndarray],
                 breakdown: BatchBreakdown) -> None:
        self._set(offsets=offsets, columns=columns, breakdown=breakdown)

    def __len__(self) -> int:
        return int(self.offsets.shape[0])

    def config_rows(self, indices: np.ndarray) -> List[List[int]]:
        """``[H, SL, B, TP, DP]`` rows for the selected indices."""
        stacked = [self.columns[name][indices] for name in _CONFIG_COLUMNS]
        return [
            [int(column[i]) for column in stacked]
            for i in range(len(indices))
        ]


# -- exactly-rounded streaming sums --------------------------------------


#: Bits in the low half of a split 53-bit mantissa (see :func:`_exact_terms`).
_SPLIT_BITS = 26
_LO_MASK = (1 << _SPLIT_BITS) - 1
#: Rows per :func:`_exact_terms` pass: every per-exponent half sum stays
#: within 2**53 in magnitude (2**26 rows of |half| <= 2**27), where
#: float64 adds integers exactly.
_TERMS_ROWS = 1 << 26
#: Values at or above this magnitude take the plain Shewchuk loop: a
#: half sum (< 2**53) scaled back to such an exponent could overflow.
_TERMS_LIMIT = 2.0 ** 960


def _fold(partials: List[float], values: Sequence[float]) -> List[float]:
    """Shewchuk's exact-partials fold, one value at a time."""
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
    return partials


def _exact_terms(values: np.ndarray) -> List[float]:
    """A few floats whose exact sum is the exact sum of ``values``.

    Each finite value is ``ints * 2**(exp - 53)`` with ``ints`` its
    53-bit integer mantissa (``np.frexp``).  ``ints`` splits into a high
    half ``ints >> 26`` and a low half ``ints & (2**26 - 1)``, and each
    half is summed per distinct exponent with ``np.bincount``; the sums
    are integers below 2**53 (see :data:`_TERMS_ROWS`), so float64 adds
    them exactly.  Scaling a sum back by its power of two is exact too:
    the result is an integer under 2**53 times ``2**k`` with ``k >=
    -1074``, or a multiple of ``2**-1074`` for subnormal inputs.  The
    terms number at most two per distinct exponent.
    """
    mantissas, exponents = np.frexp(values)
    ints = np.ldexp(mantissas, 53).astype(np.int64)
    offset = int(exponents.min())
    index = exponents - offset
    scale = np.arange(int(index.max()) + 1) + (offset - 53)
    terms = np.concatenate([
        np.ldexp(np.bincount(index, weights=ints >> _SPLIT_BITS),
                 scale + _SPLIT_BITS),
        np.ldexp(np.bincount(index, weights=ints & _LO_MASK), scale),
    ])
    return terms[terms != 0].tolist()


def exact_sum_add(partials: List[float], values: Sequence[float]
                  ) -> List[float]:
    """Fold ``values`` into a Shewchuk exact-partials accumulator.

    The partials represent the running sum *exactly* (they are
    non-overlapping floats), so folding is associative and commutative in
    exact arithmetic; only :func:`exact_sum_value` rounds, once.  A
    chunk of finite values below :data:`_TERMS_LIMIT` with at least one
    nonzero is first reduced in NumPy to a few exact terms
    (:func:`_exact_terms`), and those go through the fold; anything
    else (non-finite or huge values, all zeros, whose signed zero the
    fold keeps) takes the fold directly.
    """
    array = np.asarray(values, dtype=np.float64)
    magnitudes = np.abs(array)
    if not (array.size and magnitudes.max() < _TERMS_LIMIT
            and magnitudes.any()):
        return _fold(partials, array.tolist())
    for start in range(0, array.size, _TERMS_ROWS):
        _fold(partials, _exact_terms(array[start:start + _TERMS_ROWS]))
    return partials


def exact_sum_merge(a: List[float], b: List[float]) -> List[float]:
    """Merge two exact-partial accumulators (still exact)."""
    return _fold(list(a), b)


def exact_sum_value(partials: Sequence[float]) -> float:
    """The correctly-rounded value of an exact-partials accumulator."""
    return math.fsum(partials)


# -- reducer protocol ----------------------------------------------------


class Reducer(Frozen):
    """One online reduction over evaluated chunks.

    The partial-state contract: :meth:`observe` maps a chunk to a
    JSON-serializable payload, :meth:`merge` combines two payloads
    associatively (with :meth:`empty` as the identity), and
    :meth:`finalize` renders the merged payload into the reported
    result.  Payload JSON-compatibility is what lets the runtime cache
    persist per-chunk partials and the process pool ship them compactly.
    Reducers are immutable, and :meth:`key` is their identity:
    reducers of one type with equal keys compare and hash equal.
    """

    __slots__ = ()

    #: Reducer-kind tag used in labels and content keys.
    kind: str = "reducer"

    @property
    def label(self) -> str:
        """Display/lookup name of this reducer within one sweep."""
        raise NotImplementedError

    def key(self) -> Tuple[object, ...]:
        """Stable content tuple (for cache keys)."""
        raise NotImplementedError

    def empty(self) -> Dict[str, object]:
        """The identity payload (an empty chunk's observation)."""
        raise NotImplementedError

    def observe(self, chunk: EvaluatedChunk) -> Dict[str, object]:
        """Reduce one evaluated chunk to a partial payload."""
        raise NotImplementedError

    def merge(self, a: Dict[str, object],
              b: Dict[str, object]) -> Dict[str, object]:
        """Combine two partial payloads (associative, deterministic)."""
        raise NotImplementedError

    def finalize(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Render the merged payload into the reported result."""
        return payload

    # -- chunk-interval pruning protocol ---------------------------------
    #
    # The bound-and-prune scheduler (megasweep with ``prune=True``) may
    # skip reducing a chunk when, for EVERY reducer, the chunk's metric
    # envelope (:class:`~repro.core.bounds.ChunkBounds`) proves the
    # chunk cannot change the final output.
    # The default implementation is conservative: not prunable, so any
    # reducer without an interval argument (Histogram, Collect) forces
    # the sweep back to exhaustive evaluation.

    @property
    def prunable(self) -> bool:
        """Whether chunk-interval pruning is sound for this reducer."""
        return False

    def can_prune(self, payload: Dict[str, object],
                  bounds: "ChunkBounds") -> bool:
        """True when no row of the bounded chunk can enter the output.

        Soundness contract: a ``True`` here must keep the final result
        *bit-identical* to exhaustive evaluation, ties included --
        implementations use strict inequalities wherever a tie could be
        broken by the raw-grid offset of an unevaluated row.
        """
        return False


def _entries(chunk: EvaluatedChunk, metric: str,
             indices: np.ndarray) -> List[Dict[str, object]]:
    values = metric_values(metric, chunk.breakdown)[indices]
    offsets = chunk.offsets[indices]
    configs = chunk.config_rows(indices)
    return [
        {"value": float(value), "offset": int(offset), "config": config}
        for value, offset, config in zip(values, offsets, configs)
    ]


class TopK(Reducer):
    """The ``k`` best configurations by one breakdown metric.

    Ties break on the raw-grid offset (ascending), making the selection a
    strict total order: merging per-chunk top-k lists in any grouping
    yields the same final k.
    """

    __slots__ = ("metric", "k", "largest")

    metric: str
    k: int
    largest: bool

    kind = "top-k"

    def __init__(self, metric: str, k: int = 10,
                 largest: bool = True) -> None:
        metric_values(metric, _EMPTY_BREAKDOWN)  # validate the name
        if k < 1:
            raise ValueError("k must be >= 1")
        self._set(metric=metric, k=k, largest=largest)

    @property
    def label(self) -> str:
        direction = "max" if self.largest else "min"
        return f"top{self.k}-{direction}:{self.metric}"

    def key(self) -> Tuple[object, ...]:
        return (self.kind, self.metric, self.k, self.largest)

    def empty(self) -> Dict[str, object]:
        return {"entries": []}

    def _select(self, entries: List[Dict[str, object]]
                ) -> List[Dict[str, object]]:
        entries.sort(key=lambda e: (
            -e["value"] if self.largest else e["value"], e["offset"]
        ))
        return entries[:self.k]

    def _best(self, chunk: EvaluatedChunk) -> List[Dict[str, object]]:
        if len(chunk) == 0:
            return []
        values = metric_values(self.metric, chunk.breakdown)
        order = np.argsort(-values if self.largest else values,
                           kind="stable")[:self.k]
        return self._select(_entries(chunk, self.metric, order))

    def observe(self, chunk: EvaluatedChunk) -> Dict[str, object]:
        return {"entries": self._best(chunk)}

    def merge(self, a: Dict[str, object],
              b: Dict[str, object]) -> Dict[str, object]:
        return {"entries": self._select(list(a["entries"])
                                        + list(b["entries"]))}

    @property
    def prunable(self) -> bool:
        from repro.core.bounds import BOUNDED_METRICS

        return self.metric in BOUNDED_METRICS

    def can_prune(self, payload: Dict[str, object],
                  bounds: "ChunkBounds") -> bool:
        """Prunable once the list is full and the chunk cannot beat the
        k-th incumbent value."""
        entries = payload["entries"]
        if len(entries) < self.k:
            return False
        cut = float(entries[-1]["value"])
        # Strict comparisons: a row tying the k-th value could still win
        # the offset tie-break, so equality is never prunable.
        if self.largest:
            return bounds.upper[self.metric] < cut
        return bounds.lower[self.metric] > cut


class ParetoFront(Reducer):
    """Non-dominated configurations over two minimized metrics.

    Defaults to the paper's tension axes: compute time vs exposed
    communication.  A point is dominated when another point is <= on
    both metrics and either strictly better on one or an exact duplicate
    with a lower offset -- a strict partial order, so union-then-filter
    merging is associative and the frontier is duplicate-free.  A row
    whose y is NaN is never kept.

    :meth:`observe` finds a chunk's frontier with array operations (a
    lexicographic sort and a running minimum) and builds payload entries
    only for the frontier rows; :meth:`merge` filters the short entry
    lists with the same rule in Python.
    """

    __slots__ = ("metric_x", "metric_y")

    metric_x: str
    metric_y: str

    kind = "pareto"

    def __init__(self, metric_x: str = "compute_time",
                 metric_y: str = "exposed_comm_time") -> None:
        metric_values(metric_x, _EMPTY_BREAKDOWN)
        metric_values(metric_y, _EMPTY_BREAKDOWN)
        self._set(metric_x=metric_x, metric_y=metric_y)

    @property
    def label(self) -> str:
        return f"pareto:{self.metric_x}/{self.metric_y}"

    def key(self) -> Tuple[object, ...]:
        return (self.kind, self.metric_x, self.metric_y)

    def empty(self) -> Dict[str, object]:
        return {"entries": []}

    @staticmethod
    def _frontier(entries: List[Dict[str, object]]
                  ) -> List[Dict[str, object]]:
        entries.sort(key=lambda e: (e["x"], e["y"], e["offset"]))
        kept: List[Dict[str, object]] = []
        best_y = math.inf
        for entry in entries:
            if entry["y"] < best_y:
                kept.append(entry)
                best_y = entry["y"]
        return kept

    def observe(self, chunk: EvaluatedChunk) -> Dict[str, object]:
        if len(chunk) == 0:
            return self.empty()
        xs = metric_values(self.metric_x, chunk.breakdown)
        ys = metric_values(self.metric_y, chunk.breakdown)
        # The list frontier in arrays: sort by (x, y, offset), then keep
        # each row whose y is strictly below every earlier y.  fmin skips
        # NaN, so a NaN y is never kept and never lowers the running best.
        order = np.lexsort((chunk.offsets, ys, xs))
        sorted_y = ys[order]
        best_before = np.fmin.accumulate(
            np.concatenate(([math.inf], sorted_y[:-1])))
        kept = order[sorted_y < best_before]
        configs = chunk.config_rows(kept)
        entries = [
            {"x": float(x), "y": float(y), "offset": int(offset),
             "config": config}
            for x, y, offset, config in zip(xs[kept], ys[kept],
                                            chunk.offsets[kept], configs)
        ]
        return {"entries": entries}

    def merge(self, a: Dict[str, object],
              b: Dict[str, object]) -> Dict[str, object]:
        return {"entries": self._frontier(list(a["entries"])
                                          + list(b["entries"]))}

    @property
    def prunable(self) -> bool:
        from repro.core.bounds import BOUNDED_METRICS

        return (self.metric_x in BOUNDED_METRICS
                and self.metric_y in BOUNDED_METRICS)

    def can_prune(self, payload: Dict[str, object],
                  bounds: "ChunkBounds") -> bool:
        """Prunable iff an incumbent point dominates the whole box.

        A witness ``f`` with ``f.x < min lower(x)`` (strict: it sorts
        before every chunk row regardless of offsets) and ``f.y <= min
        lower(y)`` dominates every possible row of the chunk under the
        frontier's drop rule, so no row can survive the final merge.
        The y-comparison is deliberately non-strict -- the drop rule
        ``y < best_y`` discards later-sorted ties, and ``f`` sorts
        first.
        """
        entries = payload["entries"]
        if not entries:
            return False
        x_floor = bounds.lower[self.metric_x]
        y_floor = bounds.lower[self.metric_y]
        # Frontier entries are sorted by ascending x with strictly
        # decreasing y; the last entry left of x_floor has the best y.
        witness = None
        for entry in entries:
            if entry["x"] < x_floor:
                witness = entry
            else:
                break
        return witness is not None and witness["y"] <= y_floor


class Histogram(Reducer):
    """Streaming fixed-bin histogram with exact running statistics.

    Bin edges are fixed up front (``[lo, hi]`` split into ``bins`` equal
    bins, values outside counted as under/overflow), so per-chunk counts
    add exactly.  The mean uses the exact-partials accumulator; min and
    max are order-free.  :meth:`finalize` adds histogram-interpolated
    quantiles (p50/p90/p99).

    Fraction metrics default to ``[0, 1]``; other metrics need explicit
    bounds.
    """

    __slots__ = ("metric", "bins", "lo", "hi")

    metric: str
    bins: int
    lo: float
    hi: float

    kind = "hist"

    def __init__(self, metric: str, bins: int = 32,
                 lo: Optional[float] = None,
                 hi: Optional[float] = None) -> None:
        metric_values(metric, _EMPTY_BREAKDOWN)
        if bins < 1:
            raise ValueError("bins must be >= 1")
        if lo is None and hi is None and metric.endswith("fraction"):
            lo, hi = 0.0, 1.0
        if lo is None or hi is None:
            raise ValueError(
                f"metric {metric!r} is unbounded; pass explicit "
                f"lo/hi histogram bounds"
            )
        if not lo < hi:
            raise ValueError("lo must be < hi")
        self._set(metric=metric, bins=bins, lo=lo, hi=hi)

    @property
    def label(self) -> str:
        return f"hist{self.bins}:{self.metric}"

    def key(self) -> Tuple[object, ...]:
        return (self.kind, self.metric, self.bins, self.lo, self.hi)

    def empty(self) -> Dict[str, object]:
        return {
            "counts": [0] * self.bins,
            "under": 0,
            "over": 0,
            "count": 0,
            "sum_partials": [],
            "min": None,
            "max": None,
        }

    def observe(self, chunk: EvaluatedChunk) -> Dict[str, object]:
        if len(chunk) == 0:
            return self.empty()
        values = metric_values(self.metric, chunk.breakdown)
        inside = (values >= self.lo) & (values <= self.hi)
        counts, _ = np.histogram(values[inside], bins=self.bins,
                                 range=(self.lo, self.hi))
        return {
            "counts": [int(c) for c in counts],
            "under": int((values < self.lo).sum()),
            "over": int((values > self.hi).sum()),
            "count": int(values.shape[0]),
            "sum_partials": exact_sum_add([], values),
            "min": float(values.min()),
            "max": float(values.max()),
        }

    @staticmethod
    def _extreme(a: Optional[float], b: Optional[float], op) -> \
            Optional[float]:
        if a is None:
            return b
        if b is None:
            return a
        return op(a, b)

    def merge(self, a: Dict[str, object],
              b: Dict[str, object]) -> Dict[str, object]:
        return {
            "counts": [x + y for x, y in zip(a["counts"], b["counts"])],
            "under": a["under"] + b["under"],
            "over": a["over"] + b["over"],
            "count": a["count"] + b["count"],
            "sum_partials": exact_sum_merge(a["sum_partials"],
                                            b["sum_partials"]),
            "min": self._extreme(a["min"], b["min"], min),
            "max": self._extreme(a["max"], b["max"], max),
        }

    def _quantile(self, counts: Sequence[int], total: int,
                  q: float) -> float:
        """Histogram-interpolated quantile (deterministic, approximate)."""
        target = q * total
        width = (self.hi - self.lo) / self.bins
        cumulative = 0
        for index, count in enumerate(counts):
            if cumulative + count >= target and count > 0:
                within = (target - cumulative) / count
                return self.lo + (index + within) * width
            cumulative += count
        return self.hi

    def finalize(self, payload: Dict[str, object]) -> Dict[str, object]:
        result = dict(payload)
        partials = result.pop("sum_partials")
        total = result["count"]
        result["sum"] = exact_sum_value(partials)
        result["mean"] = result["sum"] / total if total else 0.0
        edges = np.linspace(self.lo, self.hi, self.bins + 1)
        result["edges"] = [float(e) for e in edges]
        interior = sum(result["counts"])
        for name, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            result[name] = (self._quantile(result["counts"], interior, q)
                            if interior else None)
        return result


class ArgExtrema(Reducer):
    """The single best and worst configuration by one metric.

    Exactly ``TopK(metric, 1, largest=False)`` and ``TopK(metric, 1,
    largest=True)``, which it delegates to, reported as one ``{"min":
    entry, "max": entry}`` payload (``None`` for a side with no rows).
    """

    __slots__ = ("metric", "_sides")

    metric: str

    kind = "extrema"

    def __init__(self, metric: str) -> None:
        self._set(metric=metric, _sides={
            "min": TopK(metric, 1, largest=False),
            "max": TopK(metric, 1, largest=True),
        })

    @property
    def label(self) -> str:
        return f"extrema:{self.metric}"

    def key(self) -> Tuple[object, ...]:
        return (self.kind, self.metric)

    def empty(self) -> Dict[str, object]:
        return {"min": None, "max": None}

    def observe(self, chunk: EvaluatedChunk) -> Dict[str, object]:
        return {side: _first(top._best(chunk))
                for side, top in self._sides.items()}

    def merge(self, a: Dict[str, object],
              b: Dict[str, object]) -> Dict[str, object]:
        return {side: _first(top._select(_listed(a[side]) + _listed(b[side])))
                for side, top in self._sides.items()}

    @property
    def prunable(self) -> bool:
        return all(top.prunable for top in self._sides.values())

    def can_prune(self, payload: Dict[str, object],
                  bounds: "ChunkBounds") -> bool:
        return all(top.can_prune({"entries": _listed(payload[side])}, bounds)
                   for side, top in self._sides.items())


def _listed(entry: Optional[Dict[str, object]]) -> List[Dict[str, object]]:
    return [] if entry is None else [entry]


def _first(entries: List[Dict[str, object]]) -> Optional[Dict[str, object]]:
    return entries[0] if entries else None


class Collect(Reducer):
    """Collect every evaluated row (small grids / differential checks).

    Defeats the kilobytes-not-rows contract by design -- use it only to
    reassemble full breakdown arrays for equivalence checking or for
    grids known to be small.  Rows come back sorted by offset, so the
    result is chunking- and arrival-order independent.
    """

    __slots__ = ("limit",)

    limit: int

    kind = "collect"

    def __init__(self, limit: int = 1_000_000) -> None:
        self._set(limit=limit)

    @property
    def label(self) -> str:
        return "collect"

    def key(self) -> Tuple[object, ...]:
        return (self.kind, self.limit)

    def empty(self) -> Dict[str, object]:
        return {"offsets": [], "configs": [],
                "breakdown": {name: [] for name in _BREAKDOWN_FIELDS}}

    def observe(self, chunk: EvaluatedChunk) -> Dict[str, object]:
        if len(chunk) == 0:
            return self.empty()
        indices = np.arange(len(chunk))
        return {
            "offsets": [int(o) for o in chunk.offsets],
            "configs": chunk.config_rows(indices),
            "breakdown": {
                name: [float(v) for v in
                       np.asarray(getattr(chunk.breakdown, name))]
                for name in _BREAKDOWN_FIELDS
            },
        }

    def merge(self, a: Dict[str, object],
              b: Dict[str, object]) -> Dict[str, object]:
        offsets = list(a["offsets"]) + list(b["offsets"])
        if len(offsets) > self.limit:
            raise ValueError(
                f"Collect exceeded its {self.limit}-row limit; "
                f"use aggregating reducers for large sweeps"
            )
        order = sorted(range(len(offsets)), key=offsets.__getitem__)
        configs = list(a["configs"]) + list(b["configs"])
        merged = {
            "offsets": [offsets[i] for i in order],
            "configs": [configs[i] for i in order],
            "breakdown": {},
        }
        for name in _BREAKDOWN_FIELDS:
            column = list(a["breakdown"][name]) + list(b["breakdown"][name])
            merged["breakdown"][name] = [column[i] for i in order]
        return merged


_BREAKDOWN_FIELDS = ("compute_time", "serialized_comm_time",
                     "overlapped_comm_time", "iteration_time")

#: Zero-length breakdown used to validate metric names eagerly.
_EMPTY_BREAKDOWN = BatchBreakdown(
    compute_time=np.zeros(0),
    serialized_comm_time=np.zeros(0),
    overlapped_comm_time=np.zeros(0),
    iteration_time=np.zeros(0),
)
