"""Streaming sweep pipeline: equivalence, pooling, caching, buffers."""

from __future__ import annotations

import concurrent.futures
import multiprocessing

import numpy as np
import pytest

import repro.core.batch as batch_module
from repro.core.batch import batch_execute, batch_project
from repro.core.gridplan import GridConstraint, GridSpec, MaxWorldSize
from repro.core.reducers import (
    ArgExtrema,
    Collect,
    EvaluatedChunk,
    Histogram,
    ParetoFront,
    TopK,
)
from repro.hardware.cluster import mi210_node, multi_node_cluster
from repro.runtime import megasweep
from repro.runtime.cache import ResultCache
from repro.runtime.megasweep import resolve_jobs, stream_sweep
from repro.runtime.session import Session
from repro.sim import vectorized
from repro.sim.checker import stream_oracle

CLUSTER = mi210_node()

REDUCERS = (
    TopK("iteration_time", k=5, largest=False),
    ParetoFront(),
    Histogram("serialized_comm_fraction", bins=16),
    ArgExtrema("exposed_comm_time"),
    Collect(),
)

PRUNABLE = (
    TopK("iteration_time", k=5, largest=False),
    TopK("compute_time", k=3, largest=True),
    ParetoFront(),
    ArgExtrema("exposed_comm_time"),
)


def spec_with(**overrides) -> GridSpec:
    axes = dict(
        hidden=(1024, 2048, 4096),
        seq_len=(512, 1024),
        batch=(1, 4),
        tp=(1, 2, 8),
        dp=(1, 4),
        constraints=(MaxWorldSize(16),),
    )
    axes.update(overrides)
    return GridSpec(**axes)


def one_shot_reductions(spec: GridSpec, reducers=REDUCERS,
                        mode: str = "execute", suite=None,
                        cluster=CLUSTER) -> dict:
    whole = spec.materialize()
    if mode == "execute":
        breakdown = batch_execute(whole.grid, cluster)
    else:
        breakdown = batch_project(whole.grid, suite)
    chunk = EvaluatedChunk(offsets=whole.offsets, columns=whole.columns(),
                           breakdown=breakdown)
    return {
        reducer.label: reducer.finalize(
            reducer.merge(reducer.empty(), reducer.observe(chunk)))
        for reducer in reducers
    }


class TestStreamedEquivalence:
    @pytest.mark.parametrize("chunk_size", (1, 5, 16, 1000))
    def test_serial_stream_matches_one_shot(self, chunk_size):
        spec = spec_with()
        reference = one_shot_reductions(spec)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=chunk_size, jobs=1)
        assert result.reductions == reference

    def test_pool_stream_matches_one_shot(self):
        spec = spec_with()
        reference = one_shot_reductions(spec)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=7, jobs=2)
        assert result.jobs == 2
        assert result.reductions == reference

    def test_collected_breakdowns_bit_identical(self):
        spec = spec_with()
        whole = spec.materialize()
        reference = batch_execute(whole.grid, CLUSTER)
        collect = Collect()
        result = stream_sweep(spec, (collect,), cluster=CLUSTER,
                              chunk_size=5, jobs=1)
        rebuilt = result.reductions[collect.label]["breakdown"]
        for name in ("compute_time", "serialized_comm_time",
                     "overlapped_comm_time", "iteration_time"):
            np.testing.assert_array_equal(rebuilt[name],
                                          getattr(reference, name))

    def test_project_mode(self):
        session = Session(cluster=CLUSTER)
        suite = session.suite()
        spec = spec_with()
        reference = one_shot_reductions(spec, mode="project", suite=suite)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              mode="project", suite=suite, chunk_size=9)
        assert result.reductions == reference

    def test_counts_and_metadata(self):
        spec = spec_with()
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=16)
        assert result.raw_points == spec.raw_size == 72
        assert result.evaluated_points == len(spec.materialize().grid)
        assert result.chunk_count == spec.chunk_count(16)
        assert result.mode == "execute"
        assert result.wall_time_s > 0

    def test_stream_oracle_passes(self):
        report = stream_oracle(chunk_sizes=(5,), jobs=(1,))
        assert report.ok, report.summary()
        assert report.points > 0

    def test_resolve_jobs(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(0) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(-1) >= 1

    def test_validation_errors(self):
        spec = spec_with()
        with pytest.raises(ValueError):
            stream_sweep(spec, REDUCERS, mode="bogus")
        with pytest.raises(ValueError):
            stream_sweep(spec, REDUCERS, mode="project")  # no suite
        with pytest.raises(ValueError):
            stream_sweep(spec, REDUCERS, chunk_size=0)


class _EveryOtherPut(ResultCache):
    """A memory cache that keeps only every other record put into it."""

    def __init__(self) -> None:
        super().__init__()
        self.puts = 0

    def put(self, key, payload):
        self.puts += 1
        if self.puts % 2:
            super().put(key, payload)


class FailLarge(GridConstraint):
    """Raises on any chunk that reaches ``hidden >= 4096``."""

    __slots__ = ()

    def mask(self, columns):
        if int(columns["hidden"].max(initial=0)) >= 4096:
            raise RuntimeError("seeded chunk failure")
        return np.ones(len(columns["hidden"]), dtype=bool)

    def spec_key(self):
        return ("fail-large",)


class TestFailurePropagation:
    # The seeded constraint fails while a chunk is built, which the
    # serial pruned and exhaustive paths share; pool workers build
    # their own chunks.

    @pytest.mark.parametrize("prune", (False, True))
    def test_serial_failure_propagates(self, prune):
        spec = spec_with(constraints=(FailLarge(),))
        with pytest.raises(RuntimeError, match="seeded chunk failure"):
            stream_sweep(spec, PRUNABLE if prune else REDUCERS,
                         cluster=CLUSTER, chunk_size=4, jobs=1,
                         prune=prune)

    @pytest.mark.parametrize("prune", (False, True))
    def test_pool_failure_propagates(self, prune):
        spec = spec_with(constraints=(FailLarge(),))
        with pytest.raises(RuntimeError, match="seeded chunk failure"):
            stream_sweep(spec, PRUNABLE if prune else REDUCERS,
                         cluster=CLUSTER, chunk_size=4, jobs=2,
                         prune=prune)
        assert multiprocessing.active_children() == []  # pool shut down


class TestSessionStreamSweep:
    def test_warm_replay_is_identical(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        cold = session.stream_sweep(spec, REDUCERS, chunk_size=16)
        warm = session.stream_sweep(spec, REDUCERS, chunk_size=16)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.chunk_count
        assert warm.reductions == cold.reductions

    def test_cache_key_separates_contexts(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        base = session.stream_sweep(spec, REDUCERS, chunk_size=16)
        other_chunking = session.stream_sweep(spec, REDUCERS,
                                              chunk_size=8)
        assert other_chunking.cache_hits == 0
        assert other_chunking.reductions == base.reductions
        fewer = session.stream_sweep(spec, REDUCERS[:2], chunk_size=16)
        assert fewer.cache_hits == 0
        assert set(fewer.reductions) == {r.label for r in REDUCERS[:2]}

    def test_no_cache_bypasses(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        session.stream_sweep(spec, REDUCERS, chunk_size=16)
        fresh = session.stream_sweep(spec, REDUCERS, chunk_size=16,
                                     use_cache=False)
        assert fresh.cache_hits == 0

    def test_check_flag_runs_validator(self, monkeypatch):
        calls = []
        from repro.sim import checker

        real = checker.validate_batch

        def spy(breakdown):
            calls.append(len(breakdown.iteration_time))
            return real(breakdown)

        monkeypatch.setattr(checker, "validate_batch", spy)
        session = Session(cluster=CLUSTER, check=True)
        result = session.stream_sweep(spec_with(), REDUCERS,
                                      chunk_size=16)
        assert sum(calls) == result.evaluated_points

    def test_env_check_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        session = Session(cluster=CLUSTER)
        assert session.check
        result = session.stream_sweep(spec_with(), REDUCERS,
                                      chunk_size=32)
        assert result.evaluated_points > 0


class TestBoundAndPrune:
    @pytest.mark.parametrize("jobs", (1, 2))
    @pytest.mark.parametrize("chunk_size", (3, 7, 16))
    def test_pruned_is_bit_identical_to_exhaustive(self, chunk_size,
                                                   jobs):
        spec = spec_with()
        reference = one_shot_reductions(spec, PRUNABLE)
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              chunk_size=chunk_size, jobs=jobs,
                              prune=True)
        assert result.reductions == reference
        assert result.meta["prune"]["enabled"]

    def test_prune_actually_skips_chunks(self):
        # A single narrow objective leaves most chunks provably
        # irrelevant once the incumbent tightens.
        spec = spec_with()
        selection = (TopK("iteration_time", k=1, largest=False),)
        reference = one_shot_reductions(spec, selection)
        result = stream_sweep(spec, selection, cluster=CLUSTER,
                              chunk_size=3, jobs=1, prune=True)
        meta = result.meta["prune"]
        assert result.reductions == reference
        assert meta["pruned_chunks"] > 0
        assert result.evaluated_points < len(spec.materialize().grid)

    def test_prune_accounting_is_complete(self):
        spec = spec_with()
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              chunk_size=4, jobs=1, prune=True)
        meta = result.meta["prune"]
        assert (meta["cached_chunks"] + meta["empty_chunks"]
                + meta["pruned_chunks"] + meta["exact_chunks"]
                == meta["chunks"] == result.chunk_count)
        assert meta["exact_points"] == result.evaluated_points
        assert meta["feasible_points"] == len(spec.materialize().grid)
        assert 0 < meta["exact_point_fraction"] <= 1

    def test_non_prunable_reducer_falls_back(self):
        spec = spec_with()
        mixed = PRUNABLE + (
            Histogram("serialized_comm_fraction", bins=8),)
        reference = one_shot_reductions(spec, mixed)
        result = stream_sweep(spec, mixed, cluster=CLUSTER,
                              chunk_size=7, jobs=1, prune=True)
        assert result.reductions == reference
        meta = result.meta["prune"]
        assert meta["enabled"] is False
        assert "hist8:serialized_comm_fraction" in meta["reason"]
        # every feasible point was evaluated -- nothing silently capped
        assert result.evaluated_points == len(spec.materialize().grid)

    def test_session_pruned_warm_replay(self):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        cold = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                    prune=True)
        warm = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                    prune=True)
        assert warm.reductions == cold.reductions
        # exact chunk records replay; the rest are re-pruned from
        # freshly computed bounds without touching the engine.
        assert warm.cache_hits == cold.meta["prune"]["exact_chunks"]
        assert warm.meta["prune"]["cached_chunks"] == warm.cache_hits

    def test_pruned_sweep_stores_exact_records_only(self, tmp_path):
        spec, reducers = spec_with(), PRUNABLE[:2]
        cold = Session(cluster=CLUSTER, cache_dir=tmp_path).stream_sweep(
            spec, reducers, chunk_size=4, prune=True)
        meta = cold.meta["prune"]
        assert meta["pruned_chunks"] > 0
        assert len(list(tmp_path.glob("*.json"))) == meta["exact_chunks"]
        warm = Session(cluster=CLUSTER, cache_dir=tmp_path).stream_sweep(
            spec, reducers, chunk_size=4, prune=True)
        assert warm.reductions == cold.reductions
        # Only the replayed chunks move from "exact" to "cached".
        assert warm.meta["prune"] == dict(
            meta, cached_chunks=meta["exact_chunks"], exact_chunks=0,
            exact_chunk_fraction=0.0, cached_points=meta["exact_points"],
            exact_points=0, exact_point_fraction=0.0)
        assert len(list(tmp_path.glob("*.json"))) == meta["exact_chunks"]

    def test_warm_pruned_replay_counts_no_exact_work(self):
        spec, cache = spec_with(), ResultCache()
        cold = stream_sweep(spec, PRUNABLE, cluster=CLUSTER, chunk_size=4,
                            prune=True, cache=cache)
        warm = stream_sweep(spec, PRUNABLE, cluster=CLUSTER, chunk_size=4,
                            prune=True, cache=cache)
        assert warm.reductions == cold.reductions
        cold_meta, meta = cold.meta["prune"], warm.meta["prune"]
        assert cold_meta["cached_chunks"] == cold_meta["cached_points"] == 0
        assert meta["exact_chunks"] == meta["exact_points"] == 0
        assert meta["exact_point_fraction"] == 0.0
        assert meta["cached_chunks"] == cold_meta["exact_chunks"]
        assert meta["cached_points"] == cold_meta["exact_points"]

    def test_pruned_sweep_never_starts_a_pool(self, monkeypatch):
        spec = spec_with()
        serial = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              chunk_size=4, jobs=1, prune=True)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pruned sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              chunk_size=4, jobs=2, prune=True)
        assert result.jobs == 1
        assert result.reductions == serial.reductions
        assert result.evaluated_points == serial.evaluated_points
        assert result.meta["prune"] == serial.meta["prune"]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_pruned_and_exhaustive_share_exact_records(self, jobs):
        session = Session(cluster=CLUSTER)
        spec = spec_with()
        pruned = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                      prune=True, jobs=jobs)
        exhaustive = session.stream_sweep(spec, PRUNABLE, chunk_size=4,
                                          jobs=jobs)
        assert exhaustive.reductions == pruned.reductions \
            == one_shot_reductions(spec, PRUNABLE)
        assert exhaustive.cache_hits \
            == pruned.meta["prune"]["exact_chunks"]

    def test_partial_warm_replay_through_pool(self):
        # Half the chunks replay from the cache, the pool evaluates the
        # rest, and records merge in arrival order.
        spec = spec_with()
        cold = stream_sweep(spec, REDUCERS, cluster=CLUSTER, chunk_size=4,
                            jobs=1)
        cache = _EveryOtherPut()
        stream_sweep(spec, REDUCERS, cluster=CLUSTER, chunk_size=4, jobs=1,
                     cache=cache)
        warm = stream_sweep(spec, REDUCERS, cluster=CLUSTER, chunk_size=4,
                            jobs=2, cache=cache)
        assert warm.cache_hits == (cold.chunk_count + 1) // 2
        assert warm.reductions == cold.reductions
        assert warm.evaluated_points == cold.evaluated_points

    def test_project_mode_prunes(self):
        session = Session(cluster=CLUSTER)
        suite = session.suite()
        spec = spec_with()
        reference = one_shot_reductions(spec, PRUNABLE, mode="project",
                                        suite=suite)
        result = stream_sweep(spec, PRUNABLE, cluster=CLUSTER,
                              mode="project", suite=suite, chunk_size=5,
                              prune=True)
        assert result.reductions == reference
        assert result.meta["prune"]["enabled"]

    def test_pruned_execute_sweep_times_like_exhaustive(self,
                                                        monkeypatch):
        """A pruned execute sweep runs the exhaustive sweep's key stages:
        the same block tables, so the same timing calls."""
        spec = table_spec()
        selection = (TopK("iteration_time", k=2, largest=False),
                     ParetoFront())
        monkeypatch.setattr(megasweep, "TABLE_KEYS", 40)
        counts = {}
        for name, module in (("gemm_times", vectorized),
                             ("_op_durations", batch_module)):
            real = getattr(module, name)

            def counted(*args, real=real, name=name, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        calls = {}
        for prune in (False, True):
            counts.update(gemm_times=0, _op_durations=0)
            result = stream_sweep(spec, selection, cluster=CLUSTER,
                                  chunk_size=64, prune=prune)
            calls[prune] = dict(counts)
        assert result.meta["prune"]["pruned_chunks"] > 0
        assert calls[True] == calls[False]
        assert calls[True]["_op_durations"] > 5

    def test_pruned_project_sweep_projects_each_chunk_once(self,
                                                           monkeypatch):
        import repro.core.bounds as bounds_module

        session = Session(cluster=CLUSTER)
        suite = session.suite()
        spec = spec_with()
        calls = []
        real = batch_module.batch_project

        def counted(grid, *args, **kwargs):
            calls.append(len(grid))
            return real(grid, *args, **kwargs)

        for module in (batch_module, bounds_module):
            monkeypatch.setattr(module, "batch_project", counted)
        result = stream_sweep(spec, (TopK("iteration_time", k=1),),
                              cluster=CLUSTER, mode="project", suite=suite,
                              chunk_size=3, prune=True)
        meta = result.meta["prune"]
        assert meta["pruned_chunks"] > 0
        assert len(calls) == meta["chunks"] - meta["empty_chunks"]
        assert sum(calls) == meta["feasible_points"]

    def test_check_validates_every_pruned_breakdown(self, monkeypatch):
        """Under ``check``, every breakdown a prune decision reads is
        validated once, pruned chunks included."""
        from repro.sim import checker

        rows = []
        real = checker.validate_batch

        def spy(breakdown):
            rows.append(len(breakdown))
            return real(breakdown)

        monkeypatch.setattr(checker, "validate_batch", spy)
        result = stream_sweep(spec_with(), (TopK("iteration_time", k=1),),
                              cluster=CLUSTER, chunk_size=3, prune=True,
                              check=True)
        meta = result.meta["prune"]
        assert meta["pruned_chunks"] > 0
        assert len(rows) == meta["pruned_chunks"] + meta["exact_chunks"]
        assert sum(rows) == meta["feasible_points"]


class TestVectorizedBuffers:
    def test_stack_columns_matches_concatenate(self):
        columns = [np.arange(8, dtype=np.int64) * factor
                   for factor in (1, 3, 7)]
        stacked = vectorized.stack_columns(columns, 8)
        np.testing.assert_array_equal(stacked, np.concatenate(columns))
        # each call returns its own array: an earlier stack survives
        again = vectorized.stack_columns(columns[:2], [8, 8])
        np.testing.assert_array_equal(again, np.concatenate(columns[:2]))
        np.testing.assert_array_equal(stacked, np.concatenate(columns))
        assert not np.shares_memory(stacked, again)

    def test_batch_execute_unaffected_by_buffer_reuse(self):
        # Two different grids evaluated back to back share scratch
        # buffers; results must match freshly-evaluated references.
        spec_a = spec_with()
        spec_b = spec_with(hidden=(2048, 4096), seq_len=(1024,))
        grid_a = spec_a.materialize().grid
        grid_b = spec_b.materialize().grid
        first_a = batch_execute(grid_a, CLUSTER)
        first_b = batch_execute(grid_b, CLUSTER)
        second_a = batch_execute(grid_a, CLUSTER)
        for name in ("compute_time", "serialized_comm_time",
                     "overlapped_comm_time", "iteration_time"):
            np.testing.assert_array_equal(getattr(first_a, name),
                                          getattr(second_a, name))
            assert getattr(first_b, name).shape == (len(grid_b),)


class DpAtLeastTp(GridConstraint):
    """Keeps rows with ``dp >= tp``: a DP-dependent filter that drops
    some DP-free keys entirely and others only in part."""

    __slots__ = ()

    def mask(self, columns):
        return columns["dp"] >= columns["tp"]

    def spec_key(self):
        return ("dp-at-least-tp",)


def table_spec(**overrides) -> GridSpec:
    """4,320 raw rows: more than one default chunk."""
    axes = dict(
        hidden=(1024, 1536, 2048, 3072, 4096, 8192),
        seq_len=(512, 1024, 2048, 4096),
        batch=(1, 2, 4, 8, 16, 32),
        tp=(1, 2, 4, 8, 16),
        dp=(1, 2, 4, 8, 16, 32),
        constraints=(MaxWorldSize(128),),
    )
    axes.update(overrides)
    return GridSpec(**axes)


def spy_key_stage(monkeypatch) -> list:
    """Record the DP-free keys ``(H, SL, B, TP)`` of every key stage."""
    calls = []
    real = batch_module._op_durations

    def spy(ops, grid, rows, cluster, timing):
        starts = np.arange(len(grid)) if rows.starts is None else rows.starts
        calls.append({
            (int(grid.hidden[i]), int(grid.seq_len[i]), int(grid.batch[i]),
             int(grid.tp[i])) for i in starts.tolist()})
        return real(ops, grid, rows, cluster, timing)

    monkeypatch.setattr(batch_module, "_op_durations", spy)
    return calls


def chunk_keys(spec: GridSpec, indices, chunk_size: int) -> set:
    """The DP-free keys the feasible rows of some chunks use."""
    keys = set()
    for index in indices:
        columns = spec.chunk(index, chunk_size).columns()
        keys |= set(zip(*(columns[name].tolist() for name in
                          ("hidden", "seq_len", "batch", "tp"))))
    return keys


class TestDurationTablePath:
    """A serial execute-mode sweep times each block's DP-free keys once
    and gathers every chunk from that table: its reductions must be the
    one-shot ``batch_execute`` reductions bit for bit."""

    @pytest.mark.parametrize("make_spec, chunk_size", (
        (spec_with, 1), (spec_with, 7), (table_spec, 4096),
        (table_spec, 4320)), ids=("1", "7", "4096", "raw"))
    def test_chunk_sizes_match_one_shot(self, make_spec, chunk_size):
        spec = make_spec()
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=chunk_size, jobs=1)
        assert result.reductions == one_shot_reductions(spec)

    def test_many_blocks_match_one_shot(self, monkeypatch):
        spec = table_spec()
        reference = one_shot_reductions(spec)
        calls = spy_key_stage(monkeypatch)
        monkeypatch.setattr(megasweep, "TABLE_KEYS", 40)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=100, jobs=1)
        assert result.reductions == reference
        assert len(calls) > 5
        assert all(len(keys) <= 40 for keys in calls)
        # Only a key whose rows straddle two blocks is timed twice.
        assert sum(len(keys) for keys in calls) <= (
            len(set().union(*calls)) + len(calls) - 1)

    def test_each_key_is_timed_once_per_sweep(self, monkeypatch):
        spec = table_spec()
        calls = spy_key_stage(monkeypatch)
        stream_sweep(spec, REDUCERS, cluster=CLUSTER, chunk_size=64,
                     jobs=1)
        assert len(calls) < spec.chunk_count(64)
        timed = [key for keys in calls for key in keys]
        assert len(timed) == len(set(timed))
        assert set(timed) == chunk_keys(spec, range(spec.chunk_count(64)),
                                        64)

    def test_dp_dependent_constraint_times_only_feasible_keys(
            self, monkeypatch):
        spec = table_spec(constraints=(DpAtLeastTp(), MaxWorldSize(128)))
        reference = one_shot_reductions(spec)
        calls = spy_key_stage(monkeypatch)
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=50, jobs=1)
        assert result.reductions == reference
        feasible = chunk_keys(spec, range(spec.chunk_count(50)), 50)
        assert set().union(*calls) == feasible
        # TP = 8 keys keep only DP 8 and 16; TP = 16 keys need DP >= 16
        # and so a world over 128: none of them is timed.
        assert any(key[3] == 8 for key in feasible)
        assert not any(key[3] == 16 for key in set().union(*calls))

    def test_unsorted_and_repeated_axis_values(self):
        """Rows map into the table by raw-offset arithmetic alone, so
        the DP axis order and repeated values must not matter."""
        spec = spec_with(hidden=(2048, 1024, 2048), dp=(4, 1, 4, 2))
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=5, jobs=1)
        assert result.reductions == one_shot_reductions(spec)

    def test_multi_node_cluster(self):
        cluster = multi_node_cluster()
        spec = table_spec()
        result = stream_sweep(spec, REDUCERS, cluster=cluster,
                              chunk_size=300, jobs=1)
        assert result.reductions == one_shot_reductions(spec,
                                                        cluster=cluster)

    def test_partial_cache_replay(self, monkeypatch):
        spec = table_spec()
        reference = one_shot_reductions(spec)
        cache = _EveryOtherPut()
        cold = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                            chunk_size=500, jobs=1, cache=cache)
        assert cold.reductions == reference
        calls = spy_key_stage(monkeypatch)
        warm = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                            chunk_size=500, jobs=1, cache=cache)
        assert warm.reductions == reference
        assert 0 < warm.cache_hits < warm.chunk_count
        pending = range(1, spec.chunk_count(500), 2)  # odd puts dropped
        assert set().union(*calls) == chunk_keys(spec, pending, 500)

    def test_pool_matches_one_shot(self):
        spec = table_spec()
        result = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                              chunk_size=1000, jobs=2)
        assert result.jobs == 2
        assert result.reductions == one_shot_reductions(spec)

    def test_table_rejects_another_cluster(self):
        from repro.core.batch import DurationTable
        from repro.hardware.timing import DEFAULT_TIMING

        chunk = table_spec().chunk(0, 100)
        table = DurationTable.of_chunks([chunk.grid], [chunk.offsets],
                                        table_spec().dp, CLUSTER,
                                        DEFAULT_TIMING)
        with pytest.raises(ValueError):
            batch_execute(chunk.grid, multi_node_cluster(), table=table)
        with pytest.raises(ValueError):
            batch_execute(chunk.grid, CLUSTER, table=table, start=1)


class _FailingPut(ResultCache):
    """A disk cache whose put fails once ``stores`` records are in."""

    def __init__(self, cache_dir, stores: int) -> None:
        super().__init__(cache_dir)
        self.stores = stores

    def put(self, key, payload):
        if self.stores == 0:
            raise RuntimeError("injected interruption")
        super().put(key, payload)
        self.stores -= 1


class TestResume:
    def test_interrupted_sweep_resumes_from_completed_chunks(
            self, tmp_path, monkeypatch):
        spec = table_spec()
        chunk_size, done = 400, 4
        reference = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                                 chunk_size=chunk_size, jobs=1)
        with pytest.raises(RuntimeError, match="injected interruption"):
            stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                         chunk_size=chunk_size, jobs=1,
                         cache=_FailingPut(tmp_path, stores=done))
        calls = spy_key_stage(monkeypatch)
        rerun = stream_sweep(spec, REDUCERS, cluster=CLUSTER,
                             chunk_size=chunk_size, jobs=1,
                             cache=ResultCache(tmp_path))
        assert rerun.cache_hits == done
        assert rerun.reductions == reference.reductions
        pending = range(done, spec.chunk_count(chunk_size))
        assert set().union(*calls) == chunk_keys(spec, pending, chunk_size)
        assert len(list(tmp_path.glob("*.json"))) == rerun.chunk_count
