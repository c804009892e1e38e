"""Vectorized mirrors of the hardware timing models (batch engine core).

Every function here evaluates one operator *family* for an entire array
of configurations at once with NumPy broadcasting, reproducing the
scalar models of :mod:`repro.hardware` bit-for-bit:

* arithmetic replicates the scalar formulas' exact operation order, so
  IEEE-754 rounding matches the scalar path operation by operation;
* one call times a whole operator family: :func:`elementwise_times`
  takes a per-element read/write factor and kind (a :class:`Choice` of
  kind names), :func:`cluster_all_reduce_times` a per-element
  interference mask, and :func:`gemm_times` evaluates every tile
  candidate in one broadcast pass;
* an operator's duration depends only on its shape, so
  :func:`gemm_times` times each *distinct* shape of a stacked call once
  -- tile efficiencies, roofline, base time and jitter -- and gathers
  the results back per element.  The element-wise formula costs less
  than finding the distinct counts, so there only the jitter key is
  deduplicated: one hash per distinct ``(kind, count)``;
* the deterministic shape-keyed jitter is
  :func:`repro.hardware.gemm.stable_unit_hash` -- a CRC32 of the key's
  ``repr`` -- computed for a whole column of keys at once by
  :func:`_unit_hashes`: CRC32 is affine over GF(2), so each byte of the
  repr contributes a table value that depends only on the byte and its
  distance from the end.  Digits come from the int64 columns, constant
  text from the key's ``str`` parts (a :class:`Choice` part picks one
  of a few strs per row); the small tables are built on first use.
  The scalar engine keeps calling ``stable_unit_hash``, so the
  differential checker compares two implementations of the hash;
* integer helpers (`ceil`, power-of-two rounding, tree depth) use exact
  integer arithmetic that coincides with the scalar models' float-based
  forms over the representable range.

:func:`closed_form_breakdown` replaces the discrete-event scheduler for
the fixed two-stream Transformer-layer trace: with FIFO streams and a
blocking chain whose finish times are monotone, start times reduce to a
prefix sum over the blocking ops, and each overlappable collective's
finish is ``max(previous async finish, blocking prefix at issue) +
duration`` -- exactly what :func:`repro.sim.engine.run_schedule` computes
task by task.  Given a row map, it runs the blocking chain once per run
of rows that share it, and only the chains of per-row slots per row.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from repro.hardware import collectives
from repro.hardware.cluster import ClusterSpec
from repro.hardware.collectives import (
    AllReduceAlgorithm,
    CollectiveTimingModel,
)
from repro.hardware.elementwise import ElementwiseTimingModel
from repro.hardware.gemm import GemmTimingModel
from repro.hardware.network import Link
from repro.hardware.specs import DeviceSpec, Precision

__all__ = [
    "Choice",
    "gemm_times",
    "elementwise_times",
    "all_reduce_times",
    "reduce_scatter_times",
    "all_gather_times",
    "cluster_all_reduce_times",
    "closed_form_breakdown",
    "stack_columns",
]


def _as_i64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


# -- stacking and hash scratch buffers ------------------------------------

#: Rows per slice of the kernels that work through distinct rows (the
#: jitter hash and the GEMM tile search), so their temporaries stay
#: bounded however many rows one call holds.
_SLICE_ROWS = 1024

#: Pool of int64 scratch buffers for :func:`_unit_hashes`, keyed by tag.
#: The hash's digit passes see the same shapes chunk after chunk;
#: reusing one buffer per tag removes the per-chunk allocation tax
#: (each sweep worker process has its own pool).
_SCRATCH: Dict[str, np.ndarray] = {}


def _scratch(tag: str, shape: Tuple[int, ...]) -> np.ndarray:
    """An int64 array of ``shape`` viewing the pooled buffer ``tag``,
    valid until the next request for that tag."""
    needed = math.prod(shape)
    buffer = _SCRATCH.get(tag)
    if buffer is None or buffer.shape[0] < needed:
        buffer = _SCRATCH[tag] = np.empty(max(needed, 1), dtype=np.int64)
    return buffer[:needed].reshape(shape)


def stack_columns(columns: Sequence[object],
                  widths: Union[int, Sequence[int]]) -> np.ndarray:
    """Stack per-slot columns into one new flat int64 array.

    ``widths`` is every column's length, or one length per column;
    scalar entries are broadcast to their width by the fill itself.
    Bit-identical to ``np.concatenate(columns)`` for int64 inputs.
    """
    if isinstance(widths, int):
        widths = [widths] * len(columns)
    out = np.empty(sum(widths), dtype=np.int64)
    start = 0
    for column, width in zip(columns, widths):
        out[start:start + width] = column
        start += width
    return out


def _distinct_rows(*columns: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows of equal-length 1-D int64 key columns.

    Returns ``(unique, inverse)``: ``unique`` is an ``(u, len(columns))``
    array of the distinct rows in lexicographic order and ``inverse``
    maps every input row to its row of ``unique``, so
    ``unique[inverse]`` rebuilds the input.  Shapes repeat heavily
    within one stacked timing call (the same operator recurs across
    slots and grid rows), so timing ``unique`` and gathering by
    ``inverse`` does the work once per distinct shape.  The rows are
    sorted with :func:`numpy.lexsort` and split where adjacent rows
    differ in any column.
    """
    if not len(columns[0]):
        return (np.empty((0, len(columns)), dtype=np.int64),
                np.empty(0, dtype=np.intp))
    order = np.lexsort(columns[::-1])
    starts = np.zeros(len(order), dtype=bool)
    starts[0] = True
    for column in columns:
        ordered = column[order]
        starts[1:] |= ordered[1:] != ordered[:-1]
    ranks = np.cumsum(starts)
    ranks -= 1
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = ranks
    first = order[starts]
    unique = np.empty((len(first), len(columns)), dtype=np.int64)
    for i, column in enumerate(columns):
        unique[:, i] = column[first]
    return unique, inverse


# -- jitter hash --------------------------------------------------------
#
# ``stable_unit_hash(*key)`` is ``crc32(repr(key)) / 2**32``.  CRC32 is
# affine over GF(2): for a message of length L,
# ``crc32(msg) == crc32(bytes(L)) ^ XOR_i W(L - 1 - i, msg[i])``, where
# ``W(d, b)`` is byte ``b``'s contribution when it sits ``d`` bytes
# before the end.  A key's repr is constant text (the ``str`` parts,
# quotes, ``", "`` separators, parentheses) around the decimal digits of
# its int parts, so hashing a whole column of keys is a table lookup per
# digit and per text, XOR-reduced along the row.

#: Longest key repr, in bytes, the tables cover.
_MAX_KEY_BYTES = 128
#: A non-negative int's digit count is how many of these are <= it.
_DIGIT_BOUNDS = np.array([0] + [10**k for k in range(1, 19)], dtype=np.int64)
#: Rows of the digit-pair table.  An int's last digit sits at most
#: ``_MAX_KEY_BYTES - 2`` bytes from the end (the repr opens with
#: ``(``), and an int shorter than the widest in its call still looks
#: up a zero entry for each missing pair, up to 18 bytes further.
_PAIR_ROWS = _MAX_KEY_BYTES + 17
#: Flat-table offset of each pair place beyond the distance term: the
#: plane (0 for the last pair, 1 before it) and the place's own shift.
_PAIR_OFFSETS = (np.arange(10) * 400
                 + np.minimum(np.arange(10), 1) * _PAIR_ROWS * 200
                 ).reshape(-1, 1, 1)


class Choice(NamedTuple):
    """A jitter-key part that is one of a few constant strs per row.

    Row ``i`` of the part is ``texts[codes[i]]``; ``codes`` broadcasts
    with the key's int columns.
    """

    texts: Tuple[str, ...]
    codes: np.ndarray


class _Slot:
    """Stand-in for an int column when rendering a template's text."""

    def __repr__(self) -> str:
        return "\0"  # repr() of a str never holds a raw NUL


_SLOT = _Slot()


def _shifted(table: List[int], seed: int, count: int) -> List[int]:
    """Contributions at distances ``0 .. count - 1`` of bytes whose
    contribution at distance 0 is ``seed`` (each step appends a zero
    byte)."""
    values = [seed]
    for _ in range(count - 1):
        seed = (seed >> 8) ^ table[seed & 0xFF]
        values.append(seed)
    return values


@functools.lru_cache(maxsize=None)
def _crc_tables() -> Tuple[List[int], np.ndarray, List[int]]:
    """``(byte_table, pairs, zeros)``, built on first use.

    ``byte_table[b]`` is ``W(0, b)``; ``zeros[L]`` is
    ``crc32(bytes(L))``.  ``pairs`` is a flat view of a
    ``(2, _PAIR_ROWS, 200)`` table of two-digit groups by the distance
    of the group's last byte: code ``c < 100`` is ``str(c)`` (a group
    holding an int's leading digits) and ``100 + c`` is ``c`` padded to
    two digits.  Plane 0 serves an int's last two digits, where code 0
    is the digit ``0``; plane 1 serves the groups before them, where
    code 0 is an int that has run out of digits and contributes 0.
    """
    zero = zlib.crc32(b"\0")
    table = [zlib.crc32(bytes((b,))) ^ zero for b in range(256)]
    digits = np.array([_shifted(table, table[ord("0") + value],
                                _PAIR_ROWS + 1) for value in range(10)],
                      dtype=np.uint32).T
    code = np.arange(100)
    padded = digits[:-1, code % 10] ^ digits[1:, code // 10]
    natural = padded.copy()
    natural[:, :10] = digits[:-1]
    pairs = np.stack([np.concatenate([natural, padded], axis=1)] * 2)
    pairs[1, :, 0] = 0
    zeros = [0]
    for _ in range(_MAX_KEY_BYTES):
        zeros.append(zlib.crc32(b"\0", zeros[-1]))
    return table, pairs.ravel(), zeros


@functools.lru_cache(maxsize=None)
def _text_contributions(text: bytes) -> np.ndarray:
    """Contribution of ``text`` by the distance of its last byte from
    the end of the message, for every distance a key can have."""
    table = _crc_tables()[0]
    seed = zlib.crc32(text) ^ zlib.crc32(bytes(len(text)))
    return np.array(_shifted(table, seed, _MAX_KEY_BYTES - len(text) + 1),
                    dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def _template_tables(layout: tuple) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """``(table, lengths, starts)`` for a template's constant text.

    ``layout`` is the template with ``None`` for each int column and a
    tuple of strs for each :class:`Choice` part.  Each combination of
    choices renders one text: its repr splits into ``texts[0], column
    0, texts[1], ..., texts[C]``, and column ``c`` of ``lengths`` holds
    their byte lengths.  ``table`` is one flat lookup table; per
    combination it holds ``crc32(bytes(L)) ^`` the last text's
    (constant) contribution at ``starts[0, c] + L``, then ``texts[j]``'s
    contributions by the distance of its last byte, from
    ``starts[j + 1, c]``.  Combinations are numbered with the last
    choice varying fastest.  Cached per layout: the engine's templates
    come from a fixed set of operator kinds, collective ops and
    precisions.
    """
    options = [part if isinstance(part, tuple) else (part,)
               for part in layout]
    regions: List[np.ndarray] = []
    lengths, starts = [], []
    for parts in itertools.product(*options):
        rendered = repr(tuple(_SLOT if part is None else part
                              for part in parts))
        texts = [text.encode("utf-8") for text in rendered.split("\0")]
        last = _text_contributions(texts[-1])[0]
        own = [np.array(_crc_tables()[2], dtype=np.uint32) ^ last]
        own += [_text_contributions(text) for text in texts[:-1]]
        offset = sum(len(region) for region in regions)
        starts.append(offset + np.cumsum([0] + [len(r) for r in own[:-1]]))
        lengths.append([len(text) for text in texts])
        regions += own
    return (np.concatenate(regions), np.array(lengths).T,
            np.array(starts).T)


def _unit_hashes(template: tuple) -> np.ndarray:
    """:func:`repro.hardware.gemm.stable_unit_hash` of every key row.

    ``template`` is the key tuple with each int part replaced by an
    integer array and each per-row str part by a :class:`Choice`
    (broadcast together); ``str`` parts stay constant.
    ``_unit_hashes(("gemm", m, n, k, batch, "fp16"))[i]`` equals
    ``stable_unit_hash("gemm", int(m[i]), ..., "fp16")`` bit for bit.
    Returns a flat float64 array, one value per broadcast row.

    Raises:
        TypeError: on a part that is neither a ``str``, an array nor a
            :class:`Choice` of strs, or on a column or choice code of a
            non-integer dtype.
        ValueError: on a negative value (a uint64 above the int64 range
            included), a choice code outside its texts, or a key repr
            longer than :data:`_MAX_KEY_BYTES`.
    """
    columns, layout, choices = [], [], []
    for part in template:
        if isinstance(part, Choice):
            codes = np.asarray(part.codes)
            if (codes.dtype.kind not in "iu"
                    or any(type(text) is not str for text in part.texts)):
                raise TypeError("a jitter key choice needs strs and "
                                "integer codes")
            if codes.size and (codes.min() < 0
                               or codes.max() >= len(part.texts)):
                raise ValueError(f"jitter key choice code outside "
                                 f"0 .. {len(part.texts) - 1}")
            choices.append((codes.astype(np.intp), len(part.texts)))
            part = tuple(part.texts)
        elif isinstance(part, np.ndarray):
            if part.dtype.kind not in "iu":
                raise TypeError(f"jitter key column has dtype {part.dtype}; "
                                f"expected integers")
            columns.append(part)
            part = None
        elif type(part) is not str:
            raise TypeError(f"jitter key part {part!r} has type "
                            f"{type(part).__name__}; expected a str or an "
                            f"integer array")
        layout.append(part)
    table, lengths, starts = _template_tables(tuple(layout))
    shape = np.broadcast(*columns, *(codes for codes, _ in choices)).shape
    values = np.empty((len(columns),) + shape, dtype=np.int64)
    for values_row, column in zip(values, columns):
        values_row[...] = column
    rows = math.prod(shape)
    values = values.reshape(len(columns), rows)
    if values.size and values.min() < 0:
        raise ValueError("jitter key column has a negative value")
    # Each row's combination of choices picks its texts' lengths and
    # table offsets (see ``_template_tables``).
    combination: Union[slice, np.ndarray] = slice(0, 1)
    if choices:
        combination = np.zeros(shape, dtype=np.intp)
        for codes, count in choices:
            combination = combination * count + codes
        combination = combination.reshape(rows)
    hashes = np.empty(rows, dtype=np.float64)
    for start in range(0, rows, _SLICE_ROWS):
        part = slice(start, start + _SLICE_ROWS)
        picked = (combination if isinstance(combination, slice)
                  else combination[part])
        hashes[part] = _hash_slice(table, lengths[:, picked],
                                   starts[:, picked], values[:, part])
    return hashes


def _hash_slice(table: np.ndarray, lengths: np.ndarray,
                starts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """:func:`_unit_hashes` of a slice of rows: ``values`` holds their
    int columns, and ``lengths`` and ``starts`` the template tables'
    columns of their choice combinations (or one column for all)."""
    columns = values.shape[0]
    rows = values.shape[1]
    widths = np.searchsorted(_DIGIT_BOUNDS, values, side="right")
    # Walk the repr right to left: ``ends[j + 1]`` is the distance from
    # the end of the message to the end of texts[j], ``units[j]`` to
    # column j's last digit, and ``ends[0]`` is the whole length.
    ends = np.empty((columns + 1, rows), dtype=np.int64)
    units = np.empty_like(values)
    distance = lengths[-1]
    for j in range(columns - 1, -1, -1):
        units[j] = distance
        distance = ends[j + 1] = distance + widths[j]
        distance = distance + lengths[j]
    ends[0] = distance
    if ends[0].max(initial=0) > _MAX_KEY_BYTES:
        raise ValueError(f"jitter key repr exceeds {_MAX_KEY_BYTES} bytes")
    ends += starts
    crc = np.bitwise_xor.reduce(table[ends], axis=0)
    # Digits two at a time, last pair first (see ``_crc_tables``): pair
    # ``place`` of column j ends ``2 * place`` bytes before its last digit.
    places = (int(widths.max(initial=1)) + 1) // 2
    rests = _scratch("hash.rests", (places + 1,) + values.shape)
    rests[0] = values
    for place in range(places):
        np.floor_divide(rests[place], 100, out=rests[place + 1])
    # A group's code is ``100 + rest % 100`` (two digits, zero-padded)
    # or ``rest`` itself once fewer than three digits remain: the min.
    codes = _scratch("hash.codes", rests[1:].shape)
    np.multiply(rests[1:], -100, out=codes)
    codes += rests[:-1]
    codes += 100
    np.minimum(codes, rests[:-1], out=codes)
    codes += units * 200
    codes += _PAIR_OFFSETS[:places]
    groups = codes.reshape(places * columns, rows)
    crc ^= np.bitwise_xor.reduce(_crc_tables()[1][groups], axis=0)
    return crc / 2**32


def _jitter(amplitude: float, template: tuple) -> np.ndarray:
    """Per-row ``1 + amp * (2u - 1)`` multipliers for a key template."""
    return 1.0 + amplitude * (2.0 * _unit_hashes(template) - 1.0)


# -- GEMM ---------------------------------------------------------------


def _pow2_at_most(value: np.ndarray, cap: int) -> np.ndarray:
    """Vectorized :meth:`GemmTimingModel._pow2_at_most` (value >= 1)."""
    # Smallest power of two >= value: a power of two maps to itself, any
    # other value rounds up via its float exponent (frexp's exponent of v
    # is floor(log2(v)) + 1, exact for the integer range in play).
    is_pow2 = (value & (value - 1)) == 0
    exponent = np.frexp(value.astype(np.float64))[1].astype(np.int64)
    next_pow2 = np.where(is_pow2, value, np.int64(1) << exponent)
    return np.where(value >= cap, cap, next_pow2)


def _ceil_div(numerator: np.ndarray, denominator) -> np.ndarray:
    return -(-numerator // denominator)


def _gemm_efficiency_for_tile(
    m: np.ndarray,
    n: np.ndarray,
    k: np.ndarray,
    batch: np.ndarray,
    device: DeviceSpec,
    tile,
    model: GemmTimingModel,
) -> np.ndarray:
    """Efficiency of each shape at ``tile``, an int or an array that
    broadcasts against the shape columns (one row per candidate)."""
    tile_m = _pow2_at_most(m, tile)
    tile_n = _pow2_at_most(n, tile)
    tiles_m = _ceil_div(m, tile_m)
    tiles_n = _ceil_div(n, tile_n)
    tile_eff = (m * n) / (tiles_m * tiles_n * tile_m * tile_n)
    # NumPy's array ``**`` (SIMD pow) can differ from libm pow by 1 ulp;
    # the tile-product takes only a handful of distinct values, so route
    # each through Python's pow to stay bit-identical to the scalar model.
    tile_products = tile_m * tile_n
    products, inverse = np.unique(tile_products, return_inverse=True)
    reuse_table = np.fromiter(
        ((product / model.tile**2) ** (model.TILE_REUSE_EXP / 2)
         for product in products.tolist()),
        dtype=np.float64,
        count=len(products),
    )
    reuse_eff = reuse_table[inverse].reshape(tile_products.shape)
    total_tiles = batch * tiles_m * tiles_n
    split = np.maximum(
        1, np.minimum(model.compute_units // total_tiles,
                      k // model.SPLIT_K_MIN)
    )
    split_applies = (
        (total_tiles < model.compute_units)
        & (k > model.SPLIT_K_MIN)
        & (split > 1)
    )
    total_tiles = np.where(split_applies, total_tiles * split, total_tiles)
    split_penalty = np.where(split_applies, model.SPLIT_K_EFFICIENCY, 1.0)
    waves = _ceil_div(total_tiles, model.compute_units)
    wave_eff = total_tiles / (waves * model.compute_units)
    k_eff = k / (k + model.k_half)
    m_eff = m / (m + model.m_half)
    return (device.peak_compute_efficiency * tile_eff * reuse_eff
            * wave_eff * k_eff * m_eff * split_penalty)


def gemm_times(
    m,
    n,
    k,
    batch,
    device: DeviceSpec,
    precision: Precision,
    model: GemmTimingModel,
) -> np.ndarray:
    """Vectorized :meth:`GemmTimingModel.time` over shape arrays; each
    distinct ``(m, n, k, batch)`` row is timed and hashed once per call.

    Every tile candidate is evaluated in one broadcast pass, one row
    per candidate, and the best efficiency is taken in candidate order.
    """
    columns = np.broadcast_arrays(_as_i64(m), _as_i64(n), _as_i64(k),
                                  _as_i64(batch))
    shape = columns[0].shape
    unique, inverse = _distinct_rows(*(c.ravel() for c in columns))
    m, n, k, batch = np.ascontiguousarray(unique.T)
    tiles = np.array(model.TILE_CANDIDATES, dtype=np.int64)[:, None]
    # One slice of distinct shapes at a time: the tile search holds a
    # row per candidate for each of its temporaries.
    eff = np.empty(len(unique), dtype=np.float64)
    for start in range(0, len(unique), _SLICE_ROWS):
        part = slice(start, start + _SLICE_ROWS)
        eff[part] = np.maximum.reduce(
            _gemm_efficiency_for_tile(m[part], n[part], k[part],
                                      batch[part], device, tiles, model),
            axis=0,
        )
    flops = 2 * batch * m * n * k
    t_compute = flops / (device.flops(precision) * eff)
    bytes_moved = precision.bytes * batch * (m * k + k * n + m * n)
    t_memory = bytes_moved / (
        device.mem_bw * device.peak_memory_efficiency
    )
    base = np.maximum(t_compute, t_memory) + device.compute_launch_overhead
    if model.jitter_amplitude != 0:
        base = base * _jitter(model.jitter_amplitude,
                              ("gemm", m, n, k, batch, precision.value))
    return base[inverse].reshape(shape)


# -- element-wise -------------------------------------------------------


def elementwise_times(
    elements,
    device: DeviceSpec,
    precision: Precision,
    rw_factor,
    kind,
    model: ElementwiseTimingModel,
) -> np.ndarray:
    """Vectorized :meth:`ElementwiseTimingModel.time` over element counts.

    ``rw_factor`` is a float or a per-element array, and ``kind`` a str
    or a per-element :class:`Choice` of kind names, so one call can time
    every element-wise kind of a layer.  Each distinct ``(kind, count)``
    jitter key is hashed once per call.
    """
    elements = _as_i64(elements)
    # Scalar path: int(elements * precision.bytes * rw_factor).  The int
    # product is exact in float64 for the sizes in play, so truncation
    # reproduces the int() conversion.
    nbytes = np.trunc(
        (elements * precision.bytes).astype(np.float64) * rw_factor
    )
    saturation = nbytes / (nbytes + model.saturation_half_bytes)
    achieved = device.mem_bw * device.peak_memory_efficiency * saturation
    base = nbytes / achieved
    base = base + device.compute_launch_overhead
    if not model.jitter_amplitude:
        return base
    if not isinstance(kind, Choice):
        kind = Choice((kind,), np.zeros(1, dtype=np.int64))
    codes = np.broadcast_to(_as_i64(kind.codes), elements.shape)
    unique, inverse = _distinct_rows(codes.ravel(), elements.ravel())
    jitter = _jitter(model.jitter_amplitude,
                     (Choice(kind.texts, unique[:, 0]), unique[:, 1],
                      precision.value))
    return base * jitter[inverse].reshape(elements.shape)


# -- collectives --------------------------------------------------------


def _effective_bandwidth(link: Link, nbytes: np.ndarray) -> np.ndarray:
    utilization = nbytes / (nbytes + link.saturation_half_bytes)
    return link.bandwidth * utilization


def _collective_jitter(
    model: CollectiveTimingModel,
    op: str,
    nbytes: np.ndarray,
    n_devices: np.ndarray,
):
    if model.jitter_amplitude == 0:
        return 1.0
    # The scalar key holds ``int(nbytes)``: truncate, as ``int`` does.
    if not np.isfinite(nbytes).all():
        raise ValueError("collective jitter key needs finite byte counts")
    sizes = np.trunc(nbytes)
    if sizes.size and sizes.max() >= 2.0**63:
        raise ValueError("collective byte count exceeds the int64 range")
    unique, inverse = _distinct_rows(sizes.astype(np.int64), n_devices)
    jitter = _jitter(model.jitter_amplitude,
                     ("collective", op, unique[:, 0], unique[:, 1]))
    return jitter[inverse]


def all_reduce_times(
    nbytes,
    n_devices,
    link: Link,
    algorithm: AllReduceAlgorithm,
    model: CollectiveTimingModel,
) -> np.ndarray:
    """Vectorized :func:`repro.hardware.collectives.all_reduce_time`.

    Single-device entries come back as 0.0 (the scalar early-out).
    """
    nbytes = np.asarray(nbytes, dtype=np.float64)
    n_devices = _as_i64(n_devices)
    if algorithm is AllReduceAlgorithm.AUTO:
        exact = model.without_jitter()
        ring = all_reduce_times(nbytes, n_devices, link,
                                AllReduceAlgorithm.RING, exact)
        tree = all_reduce_times(nbytes, n_devices, link,
                                AllReduceAlgorithm.TREE, exact)
        best = np.minimum(ring, tree)
        jitter = _collective_jitter(model, "allreduce-auto", nbytes,
                                    n_devices)
        return np.where(n_devices > 1, best * jitter, 0.0)
    bw = _effective_bandwidth(link, nbytes)
    if algorithm is AllReduceAlgorithm.RING:
        steps = 2 * (n_devices - 1)
        transfer = (2.0 * (n_devices - 1) / n_devices * nbytes / bw
                    * (1.0 + n_devices / model.straggler_half))
    elif algorithm is AllReduceAlgorithm.TREE:
        # ceil(log2(n)) == float exponent of n - 1 for every n >= 2.
        depth = np.frexp(
            np.maximum(n_devices - 1, 1).astype(np.float64)
        )[1].astype(np.int64)
        steps = 2 * depth
        transfer = 2.0 * nbytes / bw * collectives._TREE_BANDWIDTH_PENALTY
    else:  # IN_NETWORK
        steps = np.full_like(n_devices, 2)
        transfer = nbytes / bw
    base = steps * link.latency + transfer
    jitter = _collective_jitter(model, f"allreduce-{algorithm.value}",
                                nbytes, n_devices)
    return np.where(n_devices > 1, base * jitter, 0.0)


def _ring_collective_times(
    op: str,
    nbytes: np.ndarray,
    n_devices: np.ndarray,
    link: Link,
    model: CollectiveTimingModel,
) -> np.ndarray:
    bw = _effective_bandwidth(link, nbytes)
    base = (n_devices - 1) * link.latency + (
        (n_devices - 1) / n_devices * nbytes / bw
        * (1.0 + n_devices / model.straggler_half)
    )
    jitter = _collective_jitter(model, op, nbytes, n_devices)
    return np.where(n_devices > 1, base * jitter, 0.0)


def reduce_scatter_times(nbytes, n_devices, link: Link,
                         model: CollectiveTimingModel) -> np.ndarray:
    """Vectorized :func:`repro.hardware.collectives.reduce_scatter_time`."""
    return _ring_collective_times(
        "reduce-scatter", np.asarray(nbytes, dtype=np.float64),
        _as_i64(n_devices), link, model,
    )


def all_gather_times(nbytes, n_devices, link: Link,
                     model: CollectiveTimingModel) -> np.ndarray:
    """Vectorized :func:`repro.hardware.collectives.all_gather_time`."""
    return _ring_collective_times(
        "all-gather", np.asarray(nbytes, dtype=np.float64),
        _as_i64(n_devices), link, model,
    )


def cluster_all_reduce_times(
    nbytes,
    group_size,
    cluster: ClusterSpec,
    overlapped=False,
) -> np.ndarray:
    """Vectorized :meth:`repro.hardware.cluster.ClusterSpec.all_reduce_time`.

    Splits the grid into single-node (flat intra-link ring) and
    hierarchical (reduce-scatter / inter-node all-reduce / all-gather)
    entries, mirroring the scalar dispatch.  ``overlapped`` is a bool or
    a per-entry mask of the entries that take the interference slowdown,
    so serialized and overlapped all-reduces can share one call.
    """
    nbytes = np.asarray(np.broadcast_arrays(
        np.asarray(nbytes, dtype=np.float64), _as_i64(group_size)
    )[0], dtype=np.float64)
    group = np.broadcast_arrays(nbytes, _as_i64(group_size))[1]
    out = np.zeros(nbytes.shape, dtype=np.float64)
    active = (group > 1) & (nbytes > 0)
    if cluster.inter_link is None:
        single = active
    else:
        single = active & (group <= cluster.devices_per_node)
    if single.any():
        out[single] = all_reduce_times(
            nbytes[single], group[single], cluster.intra_link,
            cluster.allreduce_algorithm, cluster.collective_model,
        )
    multi = active & ~single
    if multi.any():
        local = cluster.devices_per_node
        local_arr = np.full(int(multi.sum()), local, dtype=np.int64)
        nodes = _ceil_div(group[multi], local)
        shard = nbytes[multi] / local
        out[multi] = (
            reduce_scatter_times(nbytes[multi], local_arr,
                                 cluster.intra_link,
                                 cluster.collective_model)
            + all_reduce_times(shard, nodes, cluster.inter_link,
                               cluster.allreduce_algorithm,
                               cluster.collective_model)
            + all_gather_times(nbytes[multi], local_arr,
                               cluster.intra_link,
                               cluster.collective_model)
        )
    if np.any(overlapped):
        out = np.where(overlapped, out * cluster.comm_interference_slowdown,
                       out)
    return out


# -- closed-form two-stream schedule ------------------------------------

#: Stream tags consumed by :func:`closed_form_breakdown`.
KIND_COMPUTE = "compute"
KIND_SERIALIZED = "comm"
KIND_OVERLAPPED = "comm-async"


def closed_form_breakdown(
    kinds: Sequence[str],
    durations: Sequence[np.ndarray],
    rows: Optional[np.ndarray] = None,
    per_row: Sequence[bool] = (),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Breakdown of the two-stream schedule, vectorized over configs.

    Args:
        kinds: Per-slot stream tag (:data:`KIND_COMPUTE`,
            :data:`KIND_SERIALIZED`, or :data:`KIND_OVERLAPPED`) in trace
            order.
        durations: Per-slot duration arrays, one array per slot.  Without
            ``rows`` they all have one entry per configuration.
        rows: Optional row map: the run index of every configuration.
            With it, a slot's array has one entry per run (the value of
            every row of that run) unless ``per_row`` marks the slot.
            The blocking chain is run once per run until a per-row
            blocking slot joins it; overlapped slots run per row.
        per_row: With ``rows``, one flag per slot: its array has one
            entry per configuration.  Empty: no slot's has.

    Returns:
        ``(compute_time, serialized_comm_time, overlapped_comm_time,
        iteration_time)`` arrays, one entry per configuration, identical
        to running :func:`repro.sim.executor.schedule_with_durations` per
        config.  A row map changes no value: every row of a run adds the
        same durations in the same order.
    """
    if len(kinds) != len(durations):
        raise ValueError(
            f"got {len(durations)} duration arrays for {len(kinds)} slots"
        )
    if not durations:
        zero = np.zeros(0, dtype=np.float64)
        return zero, zero, zero, zero
    per_row = list(per_row) or [False] * len(kinds)
    if rows is None or all(per_row):
        rows, per_row = None, [True] * len(kinds)
        shape = runs = np.shape(durations[0])
    else:
        shape = rows.shape
        runs = np.shape(durations[per_row.index(False)])
    # ``run_level``: the blocking chain still holds one entry per run.
    run_level = rows is not None
    compute = np.zeros(runs, dtype=np.float64)
    serialized = np.zeros(runs, dtype=np.float64)
    overlapped = np.zeros(shape, dtype=np.float64)
    # Finish time of the blocking (compute + serialized comm) chain and of
    # the async comm stream's last task; both advance in trace order.
    blocking = np.zeros(runs, dtype=np.float64)
    async_finish = np.zeros(shape, dtype=np.float64)
    has_async = False
    for kind, duration, row_slot in zip(kinds, durations, per_row):
        duration = np.asarray(duration, dtype=np.float64)
        if kind == KIND_OVERLAPPED:
            if not row_slot:
                duration = duration[rows]
            # Issued when the preceding blocking op finishes; FIFO on its
            # own stream, so it also waits for the previous async op.
            issue = blocking[rows] if run_level else blocking
            async_finish = np.maximum(async_finish, issue) + duration
            overlapped = overlapped + duration
            has_async = True
            continue
        if kind not in (KIND_SERIALIZED, KIND_COMPUTE):
            raise ValueError(f"unknown slot kind {kind!r}")
        if row_slot and run_level:
            blocking, compute, serialized = (
                blocking[rows], compute[rows], serialized[rows])
            run_level = False
        elif not row_slot and not run_level:
            duration = duration[rows]
        blocking = blocking + duration
        if kind == KIND_SERIALIZED:
            serialized = serialized + duration
        else:
            compute = compute + duration
    if run_level:
        blocking, compute, serialized = (
            blocking[rows], compute[rows], serialized[rows])
    iteration = np.maximum(blocking, async_finish) if has_async else blocking
    return compute, serialized, overlapped, iteration
