"""Online reducers: merge associativity, determinism, exact sums."""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from repro.core.batch import BatchBreakdown
from repro.core.bounds import ChunkBounds
from repro.core.reducers import (
    ArgExtrema,
    Collect,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
    exact_sum_add,
    exact_sum_merge,
    exact_sum_value,
    metric_values,
)

ALL_REDUCERS = (
    TopK("iteration_time", k=4, largest=False),
    TopK("compute_time", k=3, largest=True),
    ParetoFront(),
    Histogram("serialized_comm_fraction", bins=16),
    ArgExtrema("exposed_comm_time"),
    Collect(),
)


def synthetic_chunks(n_rows: int = 60, n_chunks: int = 7,
                     seed: int = 11) -> list:
    """Deterministic synthetic evaluated chunks with messy float values."""
    rng = random.Random(seed)
    compute = np.array([rng.uniform(1e-5, 1e-1) for _ in range(n_rows)])
    serialized = np.array([rng.uniform(0, 5e-2) for _ in range(n_rows)])
    overlapped = np.array([rng.uniform(0, 2e-2) for _ in range(n_rows)])
    iteration = compute + serialized + overlapped * 0.5
    rows_per = [n_rows // n_chunks] * n_chunks
    rows_per[-1] += n_rows - sum(rows_per)
    chunks = []
    offset = 0
    for rows in rows_per:
        lo, hi = offset, offset + rows
        offset = hi
        columns = {
            "hidden": np.full(rows, 1024, dtype=np.int64),
            "seq_len": np.full(rows, 2048, dtype=np.int64),
            "batch": np.full(rows, 1, dtype=np.int64),
            "tp": np.full(rows, 8, dtype=np.int64),
            "dp": np.full(rows, 2, dtype=np.int64),
        }
        chunks.append(EvaluatedChunk(
            offsets=np.arange(lo, hi, dtype=np.int64),
            columns=columns,
            breakdown=BatchBreakdown(
                compute_time=compute[lo:hi],
                serialized_comm_time=serialized[lo:hi],
                overlapped_comm_time=overlapped[lo:hi],
                iteration_time=iteration[lo:hi],
            ),
        ))
    return chunks


def tied_chunks(rows: int = 4) -> list:
    """Four chunks whose iteration times repeat the same extremes."""
    values = ([3.0, 1.0, 5.0, 1.0], [5.0, 2.0, 1.0, 5.0],
              [1.0, 5.0, 4.0, 3.0], [2.0, 2.0, 5.0, 1.0])
    chunks = []
    for index, row in enumerate(values):
        row = np.asarray(row[:rows])
        columns = {name: np.full(len(row), value, dtype=np.int64)
                   for name, value in (("hidden", 1024), ("seq_len", 2048),
                                       ("batch", 1), ("tp", 8), ("dp", 2))}
        zeros = np.zeros(len(row))
        chunks.append(EvaluatedChunk(
            offsets=np.arange(4 * index, 4 * index + len(row),
                              dtype=np.int64),
            columns=columns,
            breakdown=BatchBreakdown(compute_time=row,
                                     serialized_comm_time=zeros,
                                     overlapped_comm_time=zeros,
                                     iteration_time=row),
        ))
    return chunks


def fold(reducer, chunks, order=None):
    payload = reducer.empty()
    indices = order if order is not None else range(len(chunks))
    for index in indices:
        payload = reducer.merge(payload, reducer.observe(chunks[index]))
    return reducer.finalize(payload)


class TestMergeLaws:
    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_shuffled_arrival_is_deterministic(self, reducer):
        chunks = synthetic_chunks()
        reference = fold(reducer, chunks)
        for seed in range(5):
            order = list(range(len(chunks)))
            random.Random(seed).shuffle(order)
            assert fold(reducer, chunks, order) == reference

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_merge_associativity(self, reducer):
        chunks = synthetic_chunks(n_chunks=3)
        a, b, c = (reducer.observe(chunk) for chunk in chunks)
        left = reducer.merge(reducer.merge(a, b), c)
        right = reducer.merge(a, reducer.merge(b, c))
        assert reducer.finalize(left) == reducer.finalize(right)

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_empty_is_identity(self, reducer):
        chunk = synthetic_chunks(n_chunks=1)[0]
        observed = reducer.observe(chunk)
        left = reducer.merge(reducer.empty(), observed)
        right = reducer.merge(observed, reducer.empty())
        assert reducer.finalize(left) == reducer.finalize(right) \
            == reducer.finalize(observed)

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_chunk_size_invariance(self, reducer):
        fine = synthetic_chunks(n_rows=60, n_chunks=12)
        coarse = synthetic_chunks(n_rows=60, n_chunks=2)
        assert fold(reducer, fine) == fold(reducer, coarse)

    @pytest.mark.parametrize("reducer", ALL_REDUCERS,
                             ids=lambda r: r.label)
    def test_payloads_are_json_safe(self, reducer):
        chunks = synthetic_chunks(n_chunks=2)
        payload = reducer.merge(reducer.observe(chunks[0]),
                                reducer.observe(chunks[1]))
        assert json.loads(json.dumps(payload)) == payload


class TestTopK:
    def test_selects_global_extremes(self):
        chunks = synthetic_chunks()
        values = np.concatenate([
            chunk.breakdown.iteration_time for chunk in chunks
        ])
        reducer = TopK("iteration_time", k=4, largest=False)
        entries = fold(reducer, chunks)["entries"]
        expected = sorted(values)[:4]
        assert [entry["value"] for entry in entries] \
            == pytest.approx(expected, abs=0)

    def test_offset_tie_break(self):
        chunks = synthetic_chunks(n_chunks=2)
        # Force equal values everywhere: ties resolve by lowest offset.
        for chunk in chunks:
            chunk.breakdown.iteration_time[:] = 1.0
        entries = fold(TopK("iteration_time", k=3, largest=False),
                       chunks)["entries"]
        assert [entry["offset"] for entry in entries] == [0, 1, 2]

    def test_validation(self):
        with pytest.raises(KeyError):
            TopK("no_such_metric")
        with pytest.raises(ValueError):
            TopK("iteration_time", k=0)


def list_frontier(reducer: ParetoFront,
                  chunk: EvaluatedChunk) -> dict:
    """Reference: the per-row list frontier ``observe`` used to build."""
    xs = metric_values(reducer.metric_x, chunk.breakdown)
    ys = metric_values(reducer.metric_y, chunk.breakdown)
    configs = chunk.config_rows(np.arange(len(chunk)))
    entries = [
        {"x": float(x), "y": float(y), "offset": int(offset),
         "config": config}
        for x, y, offset, config in zip(xs, ys, chunk.offsets, configs)
    ]
    entries.sort(key=lambda e: (e["x"], e["y"], e["offset"]))
    kept = []
    best_y = math.inf
    for entry in entries:
        if entry["y"] < best_y:
            kept.append(entry)
            best_y = entry["y"]
    return {"entries": kept}


def xy_chunk(xs, ys, offsets) -> EvaluatedChunk:
    """A chunk whose compute and serialized-comm times are ``xs``/``ys``."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    columns = {name: (offsets * (i + 3)) % 97
               for i, name in enumerate(("hidden", "seq_len", "batch",
                                         "tp", "dp"))}
    return EvaluatedChunk(
        offsets=offsets, columns=columns,
        breakdown=BatchBreakdown(
            compute_time=xs, serialized_comm_time=ys,
            overlapped_comm_time=np.zeros_like(xs),
            iteration_time=xs + ys,
        ),
    )


XY_PARETO = ParetoFront("compute_time", "serialized_comm_time")


class TestParetoFront:
    def test_no_dominated_points_survive(self):
        chunks = synthetic_chunks()
        entries = fold(ParetoFront(), chunks)["entries"]
        assert entries
        for a in entries:
            for b in entries:
                if a is b:
                    continue
                dominated = (b["x"] <= a["x"] and b["y"] <= a["y"]
                             and (b["x"] < a["x"] or b["y"] < a["y"]))
                assert not dominated
        xs = [entry["x"] for entry in entries]
        ys = [entry["y"] for entry in entries]
        assert xs == sorted(xs)
        assert ys == sorted(ys, reverse=True)

    def test_exact_duplicates_keep_lowest_offset(self):
        chunks = synthetic_chunks(n_chunks=2)
        for chunk in chunks:
            chunk.breakdown.compute_time[:] = 1.0
            chunk.breakdown.serialized_comm_time[:] = 0.5
            chunk.breakdown.overlapped_comm_time[:] = 0.0
            chunk.breakdown.iteration_time[:] = 1.5
        entries = fold(ParetoFront(), chunks)["entries"]
        assert len(entries) == 1
        assert entries[0]["offset"] == 0

    @staticmethod
    def assert_same(chunk: EvaluatedChunk) -> None:
        observed = XY_PARETO.observe(chunk)
        # JSON keeps the sign of zero, which ``==`` on floats ignores.
        assert json.dumps(observed) == json.dumps(
            list_frontier(XY_PARETO, chunk))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_chunks_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        # Few distinct values: tied x, tied y and duplicate (x, y) pairs
        # at different offsets, with both signs of zero in each column.
        xs = rng.choice([-0.0, 0.0, 0.5, 1.0, 1.5, 2.0], size=n)
        ys = rng.choice([-0.0, 0.0, 0.25, 1.0, 3.0], size=n)
        offsets = rng.permutation(10 * n)[:n]
        self.assert_same(xy_chunk(xs, ys, offsets))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_chunks_with_nan_y(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 80))
        xs = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
        ys = rng.choice([0.0, 1.0, 2.0], size=n)
        # NaN y at x values no other row has: the list reference's sort
        # never compares two NaN-y keys, so it is well defined there.
        nan_rows = rng.choice(n, size=max(1, n // 5), replace=False)
        xs[nan_rows] = 0.5 + np.arange(len(nan_rows))
        ys[nan_rows] = np.nan
        offsets = rng.permutation(n)
        self.assert_same(xy_chunk(xs, ys, offsets))

    def test_nan_y_never_kept_and_never_lowers_best(self):
        chunk = xy_chunk([0.5, 1.0, 2.0, 3.0], [np.nan, 5.0, np.nan, 4.0],
                         [0, 1, 2, 3])
        entries = XY_PARETO.observe(chunk)["entries"]
        assert [e["offset"] for e in entries] == [1, 3]
        self.assert_same(chunk)

    def test_signed_zero_ties_break_on_offset(self):
        # -0.0 == 0.0, so each pair below ties and the lower offset wins,
        # keeping the sign of zero that row has.
        tied_x = xy_chunk([-0.0, 0.0], [1.0, 1.0], [5, 2])
        entry, = XY_PARETO.observe(tied_x)["entries"]
        assert entry["offset"] == 2
        assert math.copysign(1.0, entry["x"]) == 1.0
        tied_y = xy_chunk([1.0, 1.0], [0.0, -0.0], [4, 3])
        entry, = XY_PARETO.observe(tied_y)["entries"]
        assert entry["offset"] == 3
        assert math.copysign(1.0, entry["y"]) == -1.0
        self.assert_same(tied_x)
        self.assert_same(tied_y)

    def test_observe_then_merge_equals_reference_on_union(self):
        rng = np.random.default_rng(7)
        n = 200
        xs = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0], size=n)
        ys = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
        offsets = rng.permutation(n)
        whole = xy_chunk(xs, ys, offsets)
        merged = XY_PARETO.empty()
        for lo in range(0, n, 37):
            part = xy_chunk(xs[lo:lo + 37], ys[lo:lo + 37],
                            offsets[lo:lo + 37])
            merged = XY_PARETO.merge(merged, XY_PARETO.observe(part))
        assert json.dumps(merged) == json.dumps(
            list_frontier(XY_PARETO, whole))

    def test_empty_chunk(self):
        assert XY_PARETO.observe(xy_chunk([], [], [])) == {"entries": []}


class TestHistogram:
    def test_counts_and_bounds(self):
        chunks = synthetic_chunks()
        result = fold(Histogram("serialized_comm_fraction", bins=16),
                      chunks)
        values = np.concatenate([
            metric_values("serialized_comm_fraction", chunk.breakdown)
            for chunk in chunks
        ])
        assert result["count"] == len(values)
        assert sum(result["counts"]) + result["under"] + result["over"] \
            == len(values)
        assert result["min"] == values.min()
        assert result["max"] == values.max()
        assert result["sum"] == math.fsum(values)
        assert 0.0 <= result["p50"] <= result["p90"] <= result["p99"] <= 1.0

    def test_exact_sum_is_grouping_invariant(self):
        # Adversarial cancellation: naive left-to-right partial sums
        # differ across groupings; the exact accumulator must not.
        values = [1e16, 1.0, -1e16, 1e-8, 3.0, -2.0] * 50
        groupings = [1, 2, 3, 7, 60]
        sums = set()
        for size in groupings:
            partials = []
            for start in range(0, len(values), size):
                partials = exact_sum_merge(
                    partials, exact_sum_add([], values[start:start + size])
                )
            sums.add(exact_sum_value(partials))
        assert sums == {math.fsum(values)}

    def test_unbounded_metric_needs_bounds(self):
        with pytest.raises(ValueError):
            Histogram("iteration_time")
        bounded = Histogram("iteration_time", lo=0.0, hi=1.0)
        assert bounded.lo == 0.0 and bounded.hi == 1.0

    def test_fraction_metric_defaults_unit_range(self):
        hist = Histogram("serialized_comm_fraction")
        assert (hist.lo, hist.hi) == (0.0, 1.0)


def loop_sum_add(partials, values):
    """Reference: the plain Shewchuk fold, one value at a time."""
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


def exact_sum_cases():
    rng = np.random.default_rng(2023)

    def signed(n, exponents):
        return rng.standard_normal(n) * np.power(10.0, exponents)

    huge = np.ldexp(rng.standard_normal(6), rng.integers(960, 1000, 6))
    return {
        "mixed-signs": signed(4096, rng.integers(-8, 8, 4096)),
        "subnormals": np.ldexp(rng.standard_normal(3000),
                               rng.integers(-1074, -1000, 3000)),
        "wide-exponents": signed(3000, rng.integers(-300, 301, 3000)),
        "huge": np.concatenate([huge, signed(500, rng.integers(-5, 5,
                                                               500))]),
        "cancelling": np.array([1e16, 1.0, -1e16, 1e-8, 3.0, -2.0] * 50),
        "timings": rng.random(4096) * 1e-3,
        "empty": np.zeros(0),
        "single": np.array([rng.standard_normal()]),
        "single-huge": np.array([2.0 ** 1000]),
        "zeros": np.array([0.0, -0.0, 0.0]),
    }


class TestExactSum:
    @pytest.mark.parametrize("name", sorted(exact_sum_cases()))
    def test_value_equals_fsum(self, name):
        values = exact_sum_cases()[name]
        assert exact_sum_value(exact_sum_add([], values)) == \
            math.fsum(values.tolist())
        assert exact_sum_value(exact_sum_add([], values.tolist())) == \
            math.fsum(values.tolist())

    @pytest.mark.parametrize("values", (
        [math.nan], [1.0, math.nan, -2.5], [math.inf], [-math.inf],
        [2.0, math.inf, 3.0], [math.inf, -math.inf, 1.0], [2.0 ** 1000, 1.5],
    ), ids=str)
    def test_non_finite_and_huge_take_the_loop(self, values):
        partials = exact_sum_add([], np.array(values))
        reference = loop_sum_add([], list(values))
        assert np.array_equal(partials, reference, equal_nan=True)

    def test_nan_and_inf_values(self):
        assert math.isnan(exact_sum_value(exact_sum_add([], [1.0, math.nan])))
        assert exact_sum_value(exact_sum_add([], [math.inf])) == math.inf

    def test_rows_above_the_pass_limit(self, monkeypatch):
        from repro.core import reducers

        monkeypatch.setattr(reducers, "_TERMS_ROWS", 64)
        values = exact_sum_cases()["wide-exponents"]
        assert exact_sum_value(exact_sum_add([], values)) == \
            math.fsum(values.tolist())

    def test_merging_with_loop_partials_is_grouping_invariant(self):
        """Partials stored by the plain fold (e.g. in an older cache
        record) merge with NumPy-reduced ones to the same exact sum."""
        cases = exact_sum_cases()
        values = np.concatenate([cases["mixed-signs"], cases["cancelling"],
                                 cases["subnormals"], cases["timings"]])
        expected = math.fsum(values.tolist())
        rng = random.Random(7)
        for size in (1, 97, 1000, len(values)):
            chunks = [values[start:start + size]
                      for start in range(0, len(values), size)]
            parts = [loop_sum_add([], chunk.tolist()) if i % 2
                     else exact_sum_add([], chunk)
                     for i, chunk in enumerate(chunks)]
            rng.shuffle(parts)
            partials = []
            for part in parts:
                partials = exact_sum_merge(partials, part)
            assert exact_sum_value(partials) == expected, size


class TestArgExtremaAndCollect:
    def test_extrema_match_numpy(self):
        chunks = synthetic_chunks()
        values = np.concatenate([
            chunk.breakdown.exposed_comm_time for chunk in chunks
        ])
        result = fold(ArgExtrema("exposed_comm_time"), chunks)
        assert result["min"]["value"] == values.min()
        assert result["max"]["value"] == values.max()
        assert result["min"]["offset"] == int(np.argmin(values))
        assert result["max"]["offset"] == int(np.argmax(values))

    def test_extrema_ties_across_chunks_match_two_top1(self):
        # The min (1.0) and max (5.0) each recur in every chunk, at
        # different offsets; the lowest offset must win either way.
        chunks = tied_chunks()
        extrema = ArgExtrema("iteration_time")
        lowest = TopK("iteration_time", k=1, largest=False)
        highest = TopK("iteration_time", k=1, largest=True)
        for seed in range(8):
            order = list(range(len(chunks)))
            random.Random(seed).shuffle(order)
            result = fold(extrema, chunks, order)
            assert result["min"] == fold(lowest, chunks, order)["entries"][0]
            assert result["max"] == fold(highest, chunks, order)["entries"][0]
            assert (result["min"]["value"], result["min"]["offset"]) \
                == (1.0, 1)
            assert (result["max"]["value"], result["max"]["offset"]) \
                == (5.0, 2)

    def test_extrema_payload_shape_is_cache_compatible(self):
        extrema = ArgExtrema("iteration_time")
        chunk = tied_chunks()[0]
        observed = extrema.observe(chunk)
        assert set(observed) == {"min", "max"}
        for entry in observed.values():
            assert set(entry) == {"value", "offset", "config"}
        assert extrema.observe(tied_chunks(rows=0)[0]) \
            == extrema.empty() == {"min": None, "max": None}
        # A record cached as JSON merges exactly like a fresh one.
        replayed = json.loads(json.dumps(observed))
        assert extrema.merge(extrema.empty(), replayed) == observed

    def test_extrema_pruning_agrees_with_two_top1(self):
        chunks = tied_chunks()
        extrema = ArgExtrema("iteration_time")
        lowest = TopK("iteration_time", k=1, largest=False)
        highest = TopK("iteration_time", k=1, largest=True)

        def merged(reducer):
            payload = reducer.empty()
            for chunk in chunks:
                payload = reducer.merge(payload, reducer.observe(chunk))
            return payload

        incumbents = (merged(extrema), merged(lowest), merged(highest))
        empties = (extrema.empty(), lowest.empty(), highest.empty())
        # (lower, upper, prunable against the min 1.0 / max 5.0
        # incumbent): ties with either extreme are never prunable.
        cases = ((1.5, 4.5, True), (1.0, 4.0, False), (2.0, 5.0, False),
                 (0.5, 6.0, False), (0.0, 0.5, False))
        for lower, upper, expected in cases:
            bounds = ChunkBounds(index=0, raw_rows=4, rows=4,
                                 lower={"iteration_time": lower},
                                 upper={"iteration_time": upper})
            for (ext, lo, hi), want in ((incumbents, expected),
                                        (empties, False)):
                assert extrema.can_prune(ext, bounds) is want
                assert want == (lowest.can_prune(lo, bounds)
                                and highest.can_prune(hi, bounds))
            assert extrema.priority_keys(bounds) == (
                lowest.priority_keys(bounds)
                + highest.priority_keys(bounds))
        assert extrema.prunable == lowest.prunable == highest.prunable

    def test_collect_reassembles_in_offset_order(self):
        chunks = synthetic_chunks(n_chunks=4)
        reducer = Collect()
        shuffled = fold(reducer, chunks, order=[2, 0, 3, 1])
        assert shuffled["offsets"] == sorted(shuffled["offsets"])
        reference = np.concatenate([
            chunk.breakdown.iteration_time for chunk in chunks
        ])
        np.testing.assert_array_equal(
            shuffled["breakdown"]["iteration_time"], reference)

    def test_collect_limit(self):
        chunks = synthetic_chunks(n_rows=20, n_chunks=2)
        reducer = Collect(limit=15)
        with pytest.raises(ValueError):
            fold(reducer, chunks)

    def test_metric_values_unknown_name(self):
        chunk = synthetic_chunks(n_chunks=1)[0]
        with pytest.raises(KeyError):
            metric_values("bogus", chunk.breakdown)
