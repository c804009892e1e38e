"""Lazy sweep-grid planning: chunked Cartesian products with constraints.

The batch engine (:mod:`repro.core.batch`) evaluates a whole
:class:`~repro.core.batch.ConfigGrid` at once, but a serious design-space
search -- the full (H, SL, B, TP, DP) x hardware-scenario product the
paper's Section 4.3.6 analysis implies -- easily reaches 10^6+ points,
and materializing every column (plus the engine's per-slot intermediates)
in one process either exhausts memory or leaves every other core idle.

:class:`GridSpec` is the lazy complement: it holds only the *axes* of the
sweep (plus declarative :class:`GridConstraint` filters) and yields
:class:`GridChunk` pieces of a target size on demand:

* chunk ``i`` covers raw-product rows ``[i * chunk_size, (i+1) *
  chunk_size)`` in row-major axis order (``dp`` fastest), so chunk
  ordering -- and therefore every downstream reduction -- is
  deterministic and independent of worker scheduling;
* each chunk is built vectorized: :func:`numpy.unravel_index` turns the
  row range into per-axis indices, constraints are evaluated as boolean
  masks, and only surviving rows become ``ConfigGrid`` columns;
* every surviving row keeps its raw-product *offset*, the global
  tie-breaker that makes streaming reducers order-independent;
* :meth:`GridSpec.chunk_key` is a pure content fingerprint (axes +
  constraints + chunk geometry), so the runtime
  :class:`~repro.runtime.cache.ResultCache` can replay per-chunk results
  without ever seeing the arrays.

Rows whose derived head count (:func:`repro.core.strategy.sweep_num_heads`)
violates the ``ConfigGrid`` divisibility contract are dropped implicitly,
exactly as the scalar sweep would refuse to construct them.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro._frozen import Frozen
from repro.core.batch import ConfigGrid
from repro.hardware.specs import Precision

__all__ = [
    "GridConstraint",
    "MaxWorldSize",
    "FitsDeviceMemory",
    "GridChunk",
    "GridSpec",
    "DEFAULT_CHUNK_SIZE",
    "aggregate_bounds",
]

#: Default rows per chunk: the unit of cache records, pruning and pool
#: tasks.  A serial exhaustive sweep times operator shapes once per
#: block of chunks (:data:`repro.runtime.megasweep.TABLE_KEYS`), so a
#: chunk's own fixed cost is only its gather, schedule and reducers;
#: small enough that a chunk's columns and engine intermediates stay a
#: few megabytes.
DEFAULT_CHUNK_SIZE = 4096

#: Column order of the raw Cartesian product (``dp`` varies fastest).
AXIS_NAMES = ("hidden", "seq_len", "batch", "tp", "dp")


class GridConstraint(Frozen):
    """A declarative, vectorized row filter for :class:`GridSpec`.

    Subclasses implement :meth:`mask` over the raw column arrays and
    :meth:`spec_key`, a stable content tuple used for chunk fingerprints
    (so equal constraints share cache entries across processes).  The
    spec key is also the constraint's identity: constraints of one type
    with equal keys compare and hash equal.
    """

    __slots__ = ()

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Boolean keep-mask over the rows of ``columns``."""
        raise NotImplementedError

    def spec_key(self) -> Tuple[object, ...]:
        """Stable content tuple identifying this constraint."""
        raise NotImplementedError


class MaxWorldSize(GridConstraint):
    """Keep rows whose world size ``tp * dp`` fits a device budget."""

    __slots__ = ("devices",)

    devices: int

    def __init__(self, devices: int) -> None:
        if devices < 1:
            raise ValueError("devices must be >= 1")
        self._set(devices=devices)

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return columns["tp"] * columns["dp"] <= self.devices

    def spec_key(self) -> Tuple[object, ...]:
        return ("max-world", self.devices)


class FitsDeviceMemory(GridConstraint):
    """Keep rows whose per-device training footprint fits in HBM.

    Vectorized mirror of :func:`repro.models.memory.fits_on_device` for
    the single-layer sweep models the grids evaluate (TP-sharded params,
    gradients, mixed-precision Adam state, checkpointed activations);
    the integer arithmetic reproduces the scalar model exactly.

    Attributes:
        capacity_bytes: Device HBM capacity (e.g. ``device.mem_capacity``).
        headroom: Usable fraction of capacity (workspace reserve).
        checkpointing: Activation checkpointing (the paper's sweep
            setting): only the layer input is retained.
        precision_bytes: Bytes per value of the sweep precision.
    """

    __slots__ = ("capacity_bytes", "headroom", "checkpointing",
                 "precision_bytes")

    capacity_bytes: int
    headroom: float
    checkpointing: bool
    precision_bytes: int

    def __init__(self, capacity_bytes: int, headroom: float = 0.9,
                 checkpointing: bool = True,
                 precision_bytes: int = 2) -> None:
        if not 0 < headroom <= 1:
            raise ValueError("headroom must be in (0, 1]")
        self._set(capacity_bytes=capacity_bytes, headroom=headroom,
                  checkpointing=checkpointing,
                  precision_bytes=precision_bytes)

    @classmethod
    def from_device(cls, device, headroom: float = 0.9,
                    checkpointing: bool = True,
                    precision: Precision = Precision.FP16
                    ) -> "FitsDeviceMemory":
        """Constraint for a catalog :class:`~repro.hardware.specs.DeviceSpec`."""
        return cls(capacity_bytes=int(device.mem_capacity),
                   headroom=headroom, checkpointing=checkpointing,
                   precision_bytes=precision.bytes)

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        h = columns["hidden"]
        tp = columns["tp"]
        ffn = 4 * h
        params = (4 * h * h + 2 * h * ffn + 9 * h) // tp
        p = self.precision_bytes
        weights_state = params * (2 * p + 12)  # params + grads + Adam
        tokens = columns["batch"] * columns["seq_len"]
        if self.checkpointing:
            activations = p * tokens * h
        else:
            heads = np.maximum(tp, np.maximum(1, h // 128))
            hidden_tensors = 6 * tokens * h
            qkv = tokens * (3 * h // tp)
            context = tokens * (h // tp)
            scores = 2 * columns["batch"] * (heads // tp) \
                * columns["seq_len"] * columns["seq_len"]
            fc = 2 * tokens * (ffn // tp)
            activations = p * (hidden_tensors + qkv + context + scores + fc)
        total = weights_state + activations
        return total <= self.capacity_bytes * self.headroom

    def spec_key(self) -> Tuple[object, ...]:
        return ("fits-memory", self.capacity_bytes, self.headroom,
                self.checkpointing, self.precision_bytes)


class GridChunk(Frozen):
    """One evaluated-ready piece of a :class:`GridSpec` product.

    Attributes:
        index: Chunk position in the deterministic chunk ordering.
        grid: Surviving rows as a :class:`ConfigGrid` (possibly empty
            when constraints reject the whole range).
        offsets: Raw-product row offset of each surviving entry -- the
            global, unique, deterministic tie-breaker streaming reducers
            key on.
        raw_rows: Rows of the raw product this chunk covered (before
            constraint filtering).
    """

    __slots__ = ("index", "grid", "offsets", "raw_rows")
    # Array fields: equality is identity.
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    index: int
    grid: ConfigGrid
    offsets: np.ndarray
    raw_rows: int

    def __init__(self, index: int, grid: ConfigGrid, offsets: np.ndarray,
                 raw_rows: int) -> None:
        self._set(index=index, grid=grid, offsets=offsets,
                  raw_rows=raw_rows)

    def __len__(self) -> int:
        return len(self.grid)

    def columns(self) -> Mapping[str, np.ndarray]:
        """The five sweep columns of the surviving rows."""
        return {name: getattr(self.grid, name) for name in AXIS_NAMES}


def aggregate_bounds(
    lower: Mapping[str, np.ndarray],
    upper: Mapping[str, np.ndarray],
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Chunk-level bound envelope from per-row bound columns.

    Per metric: the min of the row lower bounds and the max of the row
    upper bounds -- the coarsest interval that still certifies every
    row of the chunk, which is all chunk-granular pruning can use.
    """
    return (
        {name: float(np.min(column)) for name, column in lower.items()},
        {name: float(np.max(column)) for name, column in upper.items()},
    )


def _axis(values: Sequence[int], name: str) -> Tuple[int, ...]:
    values = tuple(int(v) for v in values)
    if not values:
        raise ValueError(f"{name} axis must not be empty")
    if any(v < 1 for v in values):
        raise ValueError(f"{name} values must be >= 1")
    return values


class GridSpec(Frozen):
    """A lazy Cartesian sweep space over (H, SL, B, TP, DP).

    Never materializes the full product: chunks are derived on demand
    from row offsets, so a billion-point spec costs a few hundred bytes
    until someone asks for a chunk.

    Attributes:
        hidden: Hidden-dimension axis.
        seq_len: Sequence-length axis.
        batch: Batch-size axis.
        tp: Tensor-parallel-degree axis.
        dp: Data-parallel-degree axis.
        precision: Uniform sweep precision (one dtype per grid, the
            batch-engine contract).
        constraints: Declarative row filters, applied per chunk.

    Specs with equal :meth:`content_key` compare and hash equal.
    """

    __slots__ = ("hidden", "seq_len", "batch", "tp", "dp", "precision",
                 "constraints", "_content_key")

    hidden: Tuple[int, ...]
    seq_len: Tuple[int, ...]
    batch: Tuple[int, ...]
    tp: Tuple[int, ...]
    dp: Tuple[int, ...]
    precision: Precision
    constraints: Tuple[GridConstraint, ...]

    def __init__(self, hidden: Sequence[int], seq_len: Sequence[int],
                 batch: Sequence[int], tp: Sequence[int], dp: Sequence[int],
                 precision: Precision = Precision.FP16,
                 constraints: Sequence[GridConstraint] = ()) -> None:
        self._set(hidden=_axis(hidden, "hidden"),
                  seq_len=_axis(seq_len, "seq_len"),
                  batch=_axis(batch, "batch"), tp=_axis(tp, "tp"),
                  dp=_axis(dp, "dp"), precision=precision,
                  constraints=tuple(constraints), _content_key=None)

    @property
    def shape(self) -> Tuple[int, ...]:
        """Axis lengths in row-major product order."""
        return tuple(len(getattr(self, name)) for name in AXIS_NAMES)

    @property
    def raw_size(self) -> int:
        """Rows in the unconstrained Cartesian product."""
        size = 1
        for length in self.shape:
            size *= length
        return size

    def content_key(self) -> Tuple[object, ...]:
        """Stable content tuple (axes + precision + constraint keys).

        Computed once per spec and cached: large sweeps ask for one
        chunk key per chunk, and the spec is frozen, so the tuple can
        never change after construction.
        """
        cached = self._content_key
        if cached is None:
            cached = (
                self.hidden, self.seq_len, self.batch, self.tp, self.dp,
                self.precision.value,
                tuple(constraint.spec_key()
                      for constraint in self.constraints),
            )
            self._set(_content_key=cached)
        return cached

    def chunk_count(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> int:
        """Number of chunks at the given target size."""
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        return -(-self.raw_size // chunk_size)

    def chunk_key(self, index: int,
                  chunk_size: int = DEFAULT_CHUNK_SIZE) -> str:
        """Content fingerprint of one chunk (for the exact chunk records
        of a cached sweep).

        Derived purely from the spec content and the chunk geometry --
        two processes that never exchanged arrays agree on it.
        """
        from repro.runtime.keys import fingerprint

        return fingerprint("grid-chunk", self.content_key(),
                           chunk_size, index)

    def _raw_columns(self, start: int, stop: int) -> Mapping[str, np.ndarray]:
        offsets = np.arange(start, stop, dtype=np.int64)
        indices = np.unravel_index(offsets, self.shape)
        return {
            name: np.asarray(getattr(self, name),
                             dtype=np.int64)[axis_indices]
            for name, axis_indices in zip(AXIS_NAMES, indices)
        }

    def chunk(self, index: int,
              chunk_size: int = DEFAULT_CHUNK_SIZE) -> GridChunk:
        """Build chunk ``index`` (rows ``[index * chunk_size, ...)``).

        Raises:
            IndexError: when ``index`` is outside the chunk range.
        """
        count = self.chunk_count(chunk_size)
        if not 0 <= index < count:
            raise IndexError(
                f"chunk {index} out of range for {count} chunks"
            )
        start = index * chunk_size
        stop = min(start + chunk_size, self.raw_size)
        columns = self._raw_columns(start, stop)
        offsets = np.arange(start, stop, dtype=np.int64)
        keep = self._valid_rows(columns)
        for constraint in self.constraints:
            if not keep.any():
                break
            keep = keep & constraint.mask(columns)
        grid = ConfigGrid(
            hidden=columns["hidden"][keep],
            seq_len=columns["seq_len"][keep],
            batch=columns["batch"][keep],
            tp=columns["tp"][keep],
            dp=columns["dp"][keep],
            num_heads=self._num_heads(columns)[keep],
            ffn_dim=(4 * columns["hidden"])[keep],
            precision=self.precision,
        )
        return GridChunk(index=index, grid=grid, offsets=offsets[keep],
                         raw_rows=stop - start)

    @staticmethod
    def _num_heads(columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorized :func:`repro.core.strategy.sweep_num_heads`."""
        return np.maximum(columns["tp"],
                          np.maximum(1, columns["hidden"] // 128))

    def _valid_rows(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """The implicit divisibility contract of :class:`ConfigGrid`."""
        heads = self._num_heads(columns)
        ffn = 4 * columns["hidden"]
        return (
            (columns["hidden"] % heads == 0)
            & (heads % columns["tp"] == 0)
            & (ffn % columns["tp"] == 0)
        )

    def chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE
               ) -> Iterator[GridChunk]:
        """Every chunk in deterministic order, built lazily."""
        for index in range(self.chunk_count(chunk_size)):
            yield self.chunk(index, chunk_size)

    def materialize(self, max_rows: Optional[int] = 1_000_000) -> GridChunk:
        """The whole constrained grid as one chunk (equivalence tests).

        Raises:
            ValueError: when the raw product exceeds ``max_rows`` (pass
                ``None`` to force materialization anyway).
        """
        if max_rows is not None and self.raw_size > max_rows:
            raise ValueError(
                f"refusing to materialize {self.raw_size} raw rows "
                f"(> {max_rows}); stream it instead"
            )
        return self.chunk(0, chunk_size=max(self.raw_size, 1))
