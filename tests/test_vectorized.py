"""Distinct-row timing and the NumPy jitter hash in repro.sim.vectorized.

:func:`gemm_times` times each distinct shape of a stacked call once
and :func:`elementwise_times` hashes each distinct ``(kind, count)``
once, and both gather the results back, so every element must still
equal the scalar model's time for its own shape, bit for bit, however
heavily the shapes repeat.  ``_unit_hashes`` computes
``stable_unit_hash`` for whole key columns from CRC32 tables; it must
agree with the per-key hash on every key, and its tables with
``zlib.crc32``.  ``closed_form_breakdown`` on a row map must equal the
schedule of the expanded durations.
"""

from __future__ import annotations

import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.batch import ConfigGrid
from repro.core.hyperparams import Precision
from repro.hardware.collectives import (
    AllReduceAlgorithm,
    CollectiveTimingModel,
)
from repro.hardware.elementwise import DEFAULT_ELEMENTWISE_MODEL
from repro.hardware.gemm import (
    DEFAULT_GEMM_MODEL,
    GemmShape,
    stable_unit_hash,
)
from repro.hardware.specs import MI210
from repro.models.layers import ELEMENTWISE, layer_records
from repro.sim import vectorized
from repro.sim.checker import random_configs
from repro.sim.vectorized import Choice, _distinct_rows, _unit_hashes


def _void_unique(*columns: np.ndarray):
    """Reference: distinct rows by ``np.unique`` over a void view."""
    rows = np.ascontiguousarray(np.stack(columns, axis=1))
    width = rows.shape[1]
    packed = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    return np.unique(packed).view(rows.dtype).reshape(-1, width)


#: Narrow, mid-width and full-range values: many ties, wide gaps and
#: the int64 extremes, plus values that equal the narrow ones in their
#: low 32 bits.
_VALUES = (st.integers(min_value=-3, max_value=3)
           | st.integers(min_value=-3, max_value=3).map(
               lambda value: value + (1 << 32))
           | st.integers(min_value=0, max_value=1 << 40)
           | st.integers(min_value=np.iinfo(np.int64).min,
                         max_value=np.iinfo(np.int64).max))


@st.composite
def _key_columns(draw):
    """1-4 int64 key columns of 0-40 rows, every cell taken from one
    pool of at most 8 values: a small pool makes ties, equal columns and
    repeated rows common, and drawing one index array is much cheaper
    than drawing every cell's value."""
    width = draw(st.integers(min_value=1, max_value=4))
    length = draw(st.integers(min_value=0, max_value=40))
    pool = np.array(draw(st.lists(_VALUES, min_size=1, max_size=8)),
                    dtype=np.int64)
    index = draw(arrays(np.intp, (length, width),
                        elements=st.integers(0, len(pool) - 1)))
    table = pool[index]
    return [np.ascontiguousarray(table[:, i]) for i in range(width)]


class TestDistinctRows:
    @settings(max_examples=300, deadline=None)
    @given(_key_columns())
    def test_matches_void_view_unique(self, columns):
        unique, inverse = _distinct_rows(*columns)
        reference = _void_unique(*columns)
        assert unique.shape == (len(reference), len(columns))
        assert unique.dtype == np.int64
        # The same distinct rows, in lexicographic order.
        assert unique.tolist() == [
            list(row) for row in sorted(map(tuple, reference.tolist()))]
        assert inverse.shape == (len(columns[0]),)
        np.testing.assert_array_equal(unique[inverse],
                                      np.stack(columns, axis=1))

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        unique, inverse = _distinct_rows(empty, empty, empty)
        assert unique.shape == (0, 3)
        assert inverse.shape == (0,)


def _duplicated(rng: np.random.Generator, table: np.ndarray,
                n: int) -> np.ndarray:
    """``n`` rows drawn from ``table`` with heavy repetition."""
    return table[rng.integers(0, len(table), size=n)]


@pytest.fixture(params=["jittered", "without_jitter"])
def gemm_model(request):
    if request.param == "jittered":
        return DEFAULT_GEMM_MODEL
    return DEFAULT_GEMM_MODEL.without_jitter()


@pytest.fixture(params=["jittered", "without_jitter"])
def elementwise_model(request):
    if request.param == "jittered":
        return DEFAULT_ELEMENTWISE_MODEL
    return DEFAULT_ELEMENTWISE_MODEL.without_jitter()


class TestGemmTimes:
    @pytest.mark.parametrize("precision", [Precision.FP16, Precision.FP32])
    def test_duplicated_shapes_match_scalar(self, gemm_model, precision):
        rng = np.random.default_rng(3)
        dims = np.array([1, 3, 64, 96, 128, 511, 1024, 4096, 12288])
        shapes = np.stack([rng.choice(dims, 25) for _ in range(3)]
                          + [rng.choice([1, 2, 16, 48], 25)], axis=1)
        rows = _duplicated(rng, shapes, 700)
        times = vectorized.gemm_times(*rows.T, MI210, precision, gemm_model)
        assert times.shape == (700,)
        expected = [gemm_model.time(GemmShape(*map(int, row)), MI210,
                                    precision) for row in rows]
        assert times.tolist() == expected

    def test_sliced_tile_search_matches_scalar(self, gemm_model,
                                               monkeypatch):
        """The tile search works through the distinct shapes in slices
        of ``_SLICE_ROWS``; slicing changes no value."""
        monkeypatch.setattr(vectorized, "_SLICE_ROWS", 7)
        rng = np.random.default_rng(5)
        dims = np.array([1, 3, 64, 96, 128, 511, 1024, 4096, 12288])
        shapes = np.stack([rng.choice(dims, 40) for _ in range(3)]
                          + [rng.choice([1, 2, 16, 48], 40)], axis=1)
        rows = _duplicated(rng, shapes, 300)
        times = vectorized.gemm_times(*rows.T, MI210, Precision.FP16,
                                      gemm_model)
        assert times.tolist() == [
            gemm_model.time(GemmShape(*map(int, row)), MI210,
                            Precision.FP16) for row in rows]

    def test_broadcast_scalars(self, gemm_model):
        m = np.array([128, 4096, 128, 64], dtype=np.int64)
        times = vectorized.gemm_times(m, 1024, 512, 2, MI210,
                                      Precision.FP16, gemm_model)
        assert times.shape == (4,)
        assert times.tolist() == [
            gemm_model.time(GemmShape(int(mi), 1024, 512, 2), MI210,
                            Precision.FP16) for mi in m]

    def test_empty(self, gemm_model):
        empty = np.zeros(0, dtype=np.int64)
        times = vectorized.gemm_times(empty, empty, empty, empty, MI210,
                                      Precision.FP16, gemm_model)
        assert times.shape == (0,)
        assert times.dtype == np.float64


class TestElementwiseTimes:
    @pytest.mark.parametrize("kind,rw_factor",
                             [("layernorm", 3.0), ("gelu.grad", 2.5)])
    def test_duplicated_counts_match_scalar(self, elementwise_model, kind,
                                            rw_factor):
        rng = np.random.default_rng(5)
        counts = _duplicated(rng, rng.integers(1, 1 << 30, size=30), 900)
        times = vectorized.elementwise_times(
            counts, MI210, Precision.FP16, rw_factor, kind,
            elementwise_model)
        assert times.shape == (900,)
        expected = [elementwise_model.time(int(count), MI210,
                                           Precision.FP16, rw_factor, kind)
                    for count in counts]
        assert times.tolist() == expected

    def test_empty(self, elementwise_model):
        times = vectorized.elementwise_times(
            np.zeros(0, dtype=np.int64), MI210, Precision.FP16, 3.0,
            "layernorm", elementwise_model)
        assert times.shape == (0,)
        assert times.dtype == np.float64


# -- jitter hash --------------------------------------------------------

INT64_MAX = int(np.iinfo(np.int64).max)

#: 0, the digit-count boundaries, the float64-exact limit and the int64
#: maximum.
EDGE_VALUES = sorted({0, 9, 10, 2**53 - 1, 2**53, 2**53 + 1, INT64_MAX}
                     | {10**k - 1 for k in range(1, 19)}
                     | {10**k for k in range(19)})

ELEMENTWISE_KINDS = sorted({
    record.kind for record in layer_records(
        ConfigGrid.from_models(random_configs(1, seed=0)), True, True)
    if record.family == ELEMENTWISE})

COLLECTIVE_OPS = ([f"allreduce-{algorithm.value}"
                   for algorithm in AllReduceAlgorithm]
                  + ["reduce-scatter", "all-gather"])


def _scalar_hashes(template, rows):
    """``stable_unit_hash`` per row, the int parts taken from ``rows``."""
    out = []
    for row in rows:
        values = iter(row)
        out.append(stable_unit_hash(*(
            part if isinstance(part, str) else int(next(values))
            for part in template)))
    return out


def _random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Non-negative int64s of every digit count from 1 to 19."""
    bits = rng.integers(0, 64, size=n)
    return rng.integers(0, INT64_MAX, size=n, endpoint=True) >> (63 - bits)


class TestUnitHashes:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_random_keys_match_stable_unit_hash(self, width):
        rng = np.random.default_rng(width)
        columns = [_random_values(rng, 3000) for _ in range(width)]
        template = ("gemm",) + tuple(columns) + ("fp16",)
        assert _unit_hashes(template).tolist() == _scalar_hashes(
            template, zip(*columns))

    def test_edge_values_in_every_position(self):
        edges = np.array(EDGE_VALUES, dtype=np.int64)
        filler = np.full_like(edges, 12288)
        for position in range(4):
            columns = [filler] * 4
            columns[position] = edges
            template = ("gemm", *columns, "bf16")
            assert _unit_hashes(template).tolist() == _scalar_hashes(
                template, zip(*columns))
        widest = ("gemm", *[np.array([INT64_MAX])] * 4, "fp16")
        assert _unit_hashes(widest).tolist() == _scalar_hashes(
            widest, [[INT64_MAX] * 4])

    def test_every_engine_template(self):
        edges = np.array(EDGE_VALUES, dtype=np.int64)
        devices = np.resize(np.array([1, 2, 8, 512, 4096]), edges.size)
        templates = [("gemm", edges, edges[::-1], devices, edges,
                      precision.value) for precision in Precision]
        templates += [(kind, edges, precision.value)
                      for kind in ELEMENTWISE_KINDS for precision in Precision]
        templates += [("collective", op, edges, devices)
                      for op in COLLECTIVE_OPS]
        assert {"layernorm", "softmax", "gelu_grad"} <= set(ELEMENTWISE_KINDS)
        for template in templates:
            columns = [part for part in template
                       if isinstance(part, np.ndarray)]
            assert _unit_hashes(template).tolist() == _scalar_hashes(
                template, zip(*columns)), template[:2]

    def test_quoting_broadcasting_and_dtypes(self):
        values = np.array([[0, 7], [10, 123456]], dtype=np.int32)
        template = ("it's", values, 'say "hi"', np.uint16(3) * np.ones(
            (1, 2), dtype=np.uint16))
        expected = [stable_unit_hash("it's", int(v), 'say "hi"', 3)
                    for v in values.ravel()]
        assert _unit_hashes(template).tolist() == expected
        assert _unit_hashes(("solo",)).tolist() == [
            stable_unit_hash("solo")]
        empty = _unit_hashes(("gemm", np.zeros(0, dtype=np.int64), "fp16"))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_tables_match_zlib(self):
        byte_table, pairs, zeros = vectorized._crc_tables()
        zero = zlib.crc32(b"\0")
        assert byte_table == [zlib.crc32(bytes((b,))) ^ zero
                              for b in range(256)]
        assert zeros == [zlib.crc32(bytes(length))
                         for length in range(vectorized._MAX_KEY_BYTES + 1)]

        def contribution(text: bytes, distance: int) -> int:
            return (zlib.crc32(text + bytes(distance))
                    ^ zlib.crc32(bytes(len(text) + distance)))

        planes = pairs.reshape(2, vectorized._PAIR_ROWS, 200)
        for distance in range(vectorized._PAIR_ROWS):
            natural = [contribution(str(code).encode(), distance)
                       for code in range(100)]
            padded = [contribution(f"{code:02d}".encode(), distance)
                      for code in range(100)]
            assert planes[0, distance].tolist() == natural + padded
            assert planes[1, distance].tolist() == [0] + natural[1:] + padded
        for text in (b"('gemm', ", b", ", b", 'fp16')", b")"):
            table = vectorized._text_contributions(text)
            assert table.tolist() == [
                contribution(text, distance) for distance in
                range(vectorized._MAX_KEY_BYTES - len(text) + 1)]

    def test_import_builds_no_tables(self):
        code = ("import repro.sim.vectorized as v; "
                "assert v._crc_tables.cache_info().currsize == 0; "
                "assert v._template_tables.cache_info().currsize == 0")
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("column", [
        np.array([1.0, 2.0]),
        np.array([True, False]),
        np.array(["1", "2"]),
    ])
    def test_rejects_non_integer_columns(self, column):
        with pytest.raises(TypeError, match="expected integers"):
            _unit_hashes(("gemm", column, "fp16"))

    @pytest.mark.parametrize("part", [5, np.int64(5), 2.5, None])
    def test_rejects_non_str_constants(self, part):
        with pytest.raises(TypeError, match="jitter key part"):
            _unit_hashes(("gemm", np.array([1]), part))

    @pytest.mark.parametrize("column", [
        np.array([3, -1], dtype=np.int64),
        np.array([np.iinfo(np.int64).min], dtype=np.int64),
        np.array([2**63], dtype=np.uint64),
    ])
    def test_rejects_negative_values(self, column):
        with pytest.raises(ValueError, match="negative"):
            _unit_hashes(("gemm", column, "fp16"))

    def test_longest_key_with_a_short_int(self):
        # "(5, " + 19 digits + ", '" + text + "')" is exactly the limit,
        # and the 5 still looks up all ten pair places of its call.
        text = "x" * (vectorized._MAX_KEY_BYTES - 28)
        template = (np.array([5, 0]), np.array([INT64_MAX, 7]), text)
        assert _unit_hashes(template).tolist() == [
            stable_unit_hash(5, INT64_MAX, text),
            stable_unit_hash(0, 7, text)]

    def test_rejects_keys_longer_than_the_tables(self):
        limit = vectorized._MAX_KEY_BYTES
        # repr is "('" + text + "', " + digits + ")": 6 bytes + digits.
        text = "x" * (limit - 7)
        fits = _unit_hashes((text, np.array([5])))
        assert fits.tolist() == [stable_unit_hash(text, 5)]
        with pytest.raises(ValueError, match="exceeds"):
            _unit_hashes((text, np.array([5, 10])))


class TestChoiceParts:
    """A :class:`~repro.sim.vectorized.Choice` part picks one of a few
    constant strs per row."""

    def test_every_kind_and_precision_in_one_call(self):
        precisions = tuple(precision.value for precision in Precision)
        pairs = [(kind, precision) for kind in ELEMENTWISE_KINDS
                 for precision in precisions]
        kind_codes = np.array([ELEMENTWISE_KINDS.index(kind)
                               for kind, _ in pairs])
        precision_codes = np.array([precisions.index(precision)
                                    for _, precision in pairs])
        counts = _random_values(np.random.default_rng(7), len(pairs))
        hashes = _unit_hashes((Choice(tuple(ELEMENTWISE_KINDS), kind_codes),
                               counts,
                               Choice(precisions, precision_codes)))
        assert hashes.tolist() == [
            stable_unit_hash(kind, int(count), precision)
            for (kind, precision), count in zip(pairs, counts)]

    def test_sliced_rows_match_stable_unit_hash(self, monkeypatch):
        """Rows are hashed in slices of ``_SLICE_ROWS``, each with its
        own choice combinations; slicing changes no value."""
        monkeypatch.setattr(vectorized, "_SLICE_ROWS", 3)
        rng = np.random.default_rng(13)
        codes = rng.integers(0, 3, size=20)
        counts = _random_values(rng, 20)
        texts = ("gelu", "softmax_grad", "")
        hashes = _unit_hashes((Choice(texts, codes), counts, "fp16"))
        assert hashes.tolist() == [
            stable_unit_hash(texts[code], int(count), "fp16")
            for code, count in zip(codes, counts)]
        plain = _unit_hashes(("gemm", counts[:, None], counts[:7]))
        assert plain.tolist() == [
            stable_unit_hash("gemm", int(a), int(b))
            for a in counts for b in counts[:7]]

    def test_texts_of_different_lengths(self):
        texts = ("a", "softmax_grad", "it's", "")
        rng = np.random.default_rng(11)
        codes = rng.integers(0, len(texts), size=400)
        columns = [_random_values(rng, 400) for _ in range(2)]
        template = (columns[0], Choice(texts, codes), columns[1], "fp16")
        assert _unit_hashes(template).tolist() == [
            stable_unit_hash(int(a), texts[code], int(b), "fp16")
            for a, code, b in zip(*columns[:1], codes, columns[1])]

    def test_codes_broadcast_with_the_columns(self):
        counts = np.array([[3], [40]])
        template = (Choice(("x", "yy"), np.array([1, 0, 1])), counts)
        assert _unit_hashes(template).tolist() == [
            stable_unit_hash(text, count) for count in (3, 40)
            for text in ("yy", "x", "yy")]

    @pytest.mark.parametrize("codes", [np.array([0, 3]),
                                       np.array([-1, 0])])
    def test_rejects_out_of_range_codes(self, codes):
        with pytest.raises(ValueError, match="choice code"):
            _unit_hashes((Choice(("a", "b", "c"), codes), np.array([1, 2])))

    @pytest.mark.parametrize("choice", [
        Choice(("a", 5), np.array([0])),
        Choice(("a", "b"), np.array([0.0])),
    ])
    def test_rejects_non_str_texts_and_float_codes(self, choice):
        with pytest.raises(TypeError, match="choice"):
            _unit_hashes((choice, np.array([1])))

    def test_empty(self):
        empty = _unit_hashes((Choice(("a", "bb"), np.zeros(0, dtype=int)),
                              np.zeros(0, dtype=np.int64), "fp16"))
        assert empty.shape == (0,) and empty.dtype == np.float64

    def test_elementwise_times_with_per_row_kinds(self, elementwise_model):
        kinds = ("layernorm", "gelu_grad", "softmax")
        rng = np.random.default_rng(13)
        counts = _duplicated(rng, rng.integers(1, 1 << 30, size=20), 600)
        codes = rng.integers(0, len(kinds), size=600)
        rw_factors = np.array([3.0, 2.0, 2.5])[codes]
        times = vectorized.elementwise_times(
            counts, MI210, Precision.BF16, rw_factors, Choice(kinds, codes),
            elementwise_model)
        assert times.tolist() == [
            elementwise_model.time(int(count), MI210, Precision.BF16,
                                   float(rw), kinds[code])
            for count, rw, code in zip(counts, rw_factors, codes)]


# -- closed-form schedule on a row map -----------------------------------


def _closed_form_case(rng: np.random.Generator, kinds, per_row, lengths,
                      zero_fraction: float = 0.0):
    """Per-run/per-row durations and their per-row expansion."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    compressed, expanded = [], []
    for flag in per_row:
        values = rng.uniform(0.0, 2e-3, size=len(rows) if flag
                             else len(lengths))
        values[rng.random(values.size) < zero_fraction] = 0.0
        compressed.append(values)
        expanded.append(values if flag else values[rows])
    return rows, compressed, expanded


def _assert_same_breakdown(got, want):
    for part, reference in zip(got, want):
        assert part.shape == reference.shape
        assert part.tobytes() == reference.tobytes()


class TestClosedFormRowMap:
    """``closed_form_breakdown`` with a row map equals the schedule of
    the expanded durations bit for bit."""

    C, S, O = (vectorized.KIND_COMPUTE, vectorized.KIND_SERIALIZED,
               vectorized.KIND_OVERLAPPED)

    def engine_slots(self):
        from repro.core.batch import _layer_ops, _reads_dp, _slot_kind

        ops = _layer_ops(ConfigGrid.from_models(random_configs(1, seed=0)))
        return ([_slot_kind(op) for op in ops],
                [_reads_dp(op) for op in ops])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.4])
    def test_engine_slots(self, seed, zero_fraction):
        rng = np.random.default_rng(seed)
        kinds, per_row = self.engine_slots()
        assert True in per_row and self.O in kinds
        lengths = rng.integers(1, 9, size=40)
        rows, compressed, expanded = _closed_form_case(
            rng, kinds, per_row, lengths, zero_fraction)
        _assert_same_breakdown(
            vectorized.closed_form_breakdown(kinds, compressed, rows,
                                             per_row),
            vectorized.closed_form_breakdown(kinds, expanded))

    def test_dp_one_rows_have_zero_per_row_slots(self):
        rng = np.random.default_rng(4)
        kinds, per_row = self.engine_slots()
        lengths = np.full(30, 4)
        rows, compressed, expanded = _closed_form_case(
            rng, kinds, per_row, lengths)
        dp_one = rng.random(len(rows)) < 0.5
        for flag, values in zip(per_row, compressed):
            if flag:
                values[dp_one] = 0.0
        breakdown = vectorized.closed_form_breakdown(kinds, compressed,
                                                     rows, per_row)
        _assert_same_breakdown(
            breakdown, vectorized.closed_form_breakdown(kinds, expanded))
        assert (breakdown[2][dp_one] == 0.0).all()

    def test_every_row_its_own_run(self):
        rng = np.random.default_rng(5)
        kinds, per_row = self.engine_slots()
        rows, compressed, expanded = _closed_form_case(
            rng, kinds, per_row, np.ones(50, dtype=int))
        _assert_same_breakdown(
            vectorized.closed_form_breakdown(kinds, compressed, rows,
                                             per_row),
            vectorized.closed_form_breakdown(kinds, expanded))

    @pytest.mark.parametrize("kinds,per_row", [
        ((C, S, O, S, C, O, C), (False, True, True, False, False, False,
                                 True)),
        ((O, C, S, O), (False, False, True, False)),
        ((C, C, S), (False, False, False)),
        ((S, O, C), (True, True, True)),
    ])
    def test_per_row_blocking_and_per_run_async_slots(self, kinds, per_row):
        rng = np.random.default_rng(6)
        rows, compressed, expanded = _closed_form_case(
            rng, kinds, per_row, rng.integers(1, 6, size=25), 0.2)
        _assert_same_breakdown(
            vectorized.closed_form_breakdown(kinds, compressed, rows,
                                             per_row),
            vectorized.closed_form_breakdown(kinds, expanded))


class TestCollectiveJitter:
    def test_truncates_sizes_like_int(self):
        model = CollectiveTimingModel()
        nbytes = np.array([0.0, 0.5, 1.9999, 2.0, 1e15 + 0.5, 2.0**53,
                           3.5e18, 9.2e18])
        devices = np.array([2, 2, 4, 4, 8, 16, 2, 512])
        jitter = vectorized._collective_jitter(model, "all-gather", nbytes,
                                               devices)
        assert jitter.tolist() == [
            model.jitter("all-gather", size, int(count))
            for size, count in zip(nbytes.tolist(), devices)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**63])
    def test_rejects_non_finite_and_huge_sizes(self, bad):
        with pytest.raises(ValueError, match="finite|int64"):
            vectorized._collective_jitter(
                CollectiveTimingModel(), "reduce-scatter",
                np.array([1024.0, bad]), np.array([2, 2]))

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="negative"):
            vectorized._collective_jitter(
                CollectiveTimingModel(), "reduce-scatter",
                np.array([-1.0]), np.array([2]))
