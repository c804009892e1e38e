"""Distinct-row timing in repro.sim.vectorized.

:func:`gemm_times` times each distinct shape of a stacked call once
and :func:`elementwise_times` hashes each distinct count once, and both
gather the results back, so every element must still equal the scalar
model's time for its own shape, bit for bit, however heavily the shapes
repeat.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hyperparams import Precision
from repro.hardware.elementwise import DEFAULT_ELEMENTWISE_MODEL
from repro.hardware.gemm import DEFAULT_GEMM_MODEL, GemmShape
from repro.hardware.specs import MI210
from repro.sim import vectorized
from repro.sim.vectorized import _distinct_rows


def _void_unique(*columns: np.ndarray):
    """Reference: distinct rows by ``np.unique`` over a void view."""
    rows = np.ascontiguousarray(np.stack(columns, axis=1))
    width = rows.shape[1]
    packed = rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()
    return np.unique(packed).view(rows.dtype).reshape(-1, width)


#: Narrow, mid-width and full-range values: many ties, wide gaps and
#: the int64 extremes.
_VALUES = (st.integers(min_value=-3, max_value=3)
           | st.integers(min_value=0, max_value=1 << 40)
           | st.integers(min_value=np.iinfo(np.int64).min,
                         max_value=np.iinfo(np.int64).max))


@st.composite
def _key_columns(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    length = draw(st.integers(min_value=0, max_value=40))
    rows = draw(st.lists(st.tuples(*[_VALUES] * width),
                         min_size=length, max_size=length))
    table = np.array(rows, dtype=np.int64).reshape(length, width)
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
