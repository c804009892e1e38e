"""Exact prune bounds: property tests against the exact engines.

The pruning scheduler is sound only if every bound produced by
:mod:`repro.core.bounds` brackets the exact engine output.  The bounds
are the exact metrics, so these tests assert ``lower == exact ==
upper`` bit for bit per metric over seeded-random configs, every named
zoo model and every paper hardware-evolution scenario, with and without
a duration table read at a row offset -- plus the chunk-level envelopes
and the cache key plumbing the scheduler relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import (
    ConfigGrid,
    DurationTable,
    batch_execute,
    batch_project,
)
from repro.core.bounds import BOUNDED_METRICS, bound_grid
from repro.core.evolution import PAPER_SCENARIOS
from repro.core.gridplan import GridSpec, MaxWorldSize, aggregate_bounds
from repro.core.hyperparams import ParallelConfig
from repro.core.reducers import TopK, metric_values
from repro.hardware.cluster import mi210_node, multi_node_cluster
from repro.models.zoo import MODEL_ZOO
from repro.runtime.megasweep import stream_sweep
from repro.sim.checker import random_configs
from repro.sim.executor import DEFAULT_TIMING

CLUSTER = mi210_node()

#: TP degrees tried per zoo model; filtered by the model's own head and
#: FFN divisibility (GPT-2's 25 heads only admit 1 and 5, for example).
_TP_CANDIDATES = (1, 2, 4, 5, 8)


def zoo_pairs():
    """Every zoo model under each of its valid candidate TP degrees."""
    pairs = []
    for model in MODEL_ZOO.values():
        for tp in _TP_CANDIDATES:
            if model.num_heads % tp or model.ffn_dim % tp:
                continue
            pairs.append((model.replace(batch=4),
                          ParallelConfig(tp=tp, dp=8)))
    return pairs


def assert_bits_equal(bounds, exact) -> None:
    """``lower == exact == upper`` bit for bit on every bounded metric."""
    for name in BOUNDED_METRICS:
        values = metric_values(name, exact).tobytes()
        assert bounds.lower[name].tobytes() == values, name
        assert bounds.upper[name].tobytes() == values, name


def assert_admissible(grid: ConfigGrid, cluster):
    """The bounds of ``grid`` are its exact metrics; returns the exact
    breakdown and the bounds."""
    exact = batch_execute(grid, cluster)
    bounds = bound_grid(grid, cluster=cluster)
    assert_bits_equal(bounds, exact)
    return exact, bounds


class TestAdmissibility:
    @pytest.mark.parametrize("seed", (0, 7, 23))
    def test_random_configs(self, seed):
        grid = ConfigGrid.from_models(random_configs(120, seed=seed))
        assert_admissible(grid, CLUSTER)

    @pytest.mark.parametrize(
        "scenario", PAPER_SCENARIOS, ids=lambda s: s.name)
    def test_zoo_models_under_evolution(self, scenario):
        pairs = zoo_pairs()
        assert len(pairs) >= len(MODEL_ZOO)
        grid = ConfigGrid.from_models(pairs)
        assert_admissible(grid, scenario.apply(CLUSTER))

    def test_intervals_are_not_vacuous(self):
        grid = ConfigGrid.from_models(random_configs(50, seed=1))
        bounds = bound_grid(grid, cluster=CLUSTER)
        for name in ("compute_time", "iteration_time"):
            assert (bounds.lower[name] > 0).all(), name
        for name in BOUNDED_METRICS:
            assert np.isfinite(bounds.upper[name]).all(), name
        assert len(bounds) == len(grid) == len(bounds.breakdown)

    def test_project_mode_zero_width(self):
        from repro.runtime.session import Session

        suite = Session(cluster=CLUSTER).suite()
        grid = ConfigGrid.from_models(random_configs(40, seed=5))
        bounds = bound_grid(grid, mode="project", suite=suite)
        assert_bits_equal(bounds, batch_project(grid, suite))

    @pytest.mark.parametrize("cluster", (CLUSTER, multi_node_cluster()),
                             ids=("node", "multi-node"))
    def test_designspace_grid_admissible_and_tight(self, cluster):
        """Every feasible row of the design-space grid gets its exact
        metrics as bounds: zero interval width."""
        from repro.experiments.ext_designspace import design_spec

        grid = design_spec(cluster).materialize().grid
        _, bounds = assert_admissible(grid, cluster)
        for name in BOUNDED_METRICS:
            assert (bounds.upper[name] - bounds.lower[name] == 0).all()

    def test_validation_errors(self):
        grid = ConfigGrid.from_models(random_configs(4, seed=0))
        with pytest.raises(ValueError):
            bound_grid(grid, mode="bogus")
        with pytest.raises(ValueError):
            bound_grid(grid, mode="project")  # no suite


class TestExactBounds:
    """``bound_grid`` equals ``batch_execute`` bit for bit however its
    rows are timed: its own key stage, or a duration table holding them
    at some row offset, as a pruned sweep reads a block's chunks."""

    @pytest.mark.parametrize("cluster", (CLUSTER, multi_node_cluster()),
                             ids=("node", "multi-node"))
    @pytest.mark.parametrize("start", (None, 0, 37, 80),
                             ids=("no-table", "start-0", "start-37",
                                  "start-80"))
    def test_bounds_equal_batch_execute(self, cluster, start):
        configs = random_configs(120, seed=13)
        table = None
        if start is not None:
            table = DurationTable.of_grid(ConfigGrid.from_models(configs),
                                          cluster, DEFAULT_TIMING)
            configs = configs[start:start + 40]
        grid = ConfigGrid.from_models(configs)
        bounds = bound_grid(grid, cluster=cluster, table=table,
                            start=start or 0)
        assert_bits_equal(bounds, batch_execute(grid, cluster))
        assert_bits_equal(bounds, bounds.breakdown)

    @pytest.mark.parametrize("cluster", (CLUSTER, multi_node_cluster()),
                             ids=("node", "multi-node"))
    def test_sweep_chunk_tables(self, cluster):
        """A table over several sweep chunks, read chunk by chunk."""
        spec = spec_with(dp=(1, 2, 4, 8, 16))
        chunks = [spec.chunk(index, 5) for index in range(spec.chunk_count(5))]
        chunks = [chunk for chunk in chunks if len(chunk)]
        table = DurationTable.of_chunks(
            [chunk.grid for chunk in chunks],
            [chunk.offsets for chunk in chunks], spec.dp, cluster,
            DEFAULT_TIMING)
        start = 0
        for chunk in chunks:
            bounds = bound_grid(chunk.grid, cluster=cluster, table=table,
                                start=start)
            assert_bits_equal(bounds, batch_execute(chunk.grid, cluster))
            start += len(chunk)
        assert start == table.size


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


class TestChunkBounds:
    @pytest.mark.parametrize("chunk_size", (1, 5, 16))
    def test_envelope_covers_every_chunk(self, chunk_size):
        """A chunk's envelope is the min and max of its exact rows."""
        spec = spec_with()
        for index in range(spec.chunk_count(chunk_size)):
            chunk = spec.chunk(index, chunk_size)
            if len(chunk) == 0:
                continue
            bounds = bound_grid(chunk.grid, cluster=CLUSTER)
            lower, upper = aggregate_bounds(bounds.lower, bounds.upper)
            exact = batch_execute(chunk.grid, CLUSTER)
            for name in BOUNDED_METRICS:
                values = metric_values(name, exact)
                assert lower[name] == values.min(), name
                assert upper[name] == values.max(), name

    def test_empty_chunk(self, monkeypatch):
        """A chunk no row of which passes the constraints is counted as
        empty, and nothing bounds or evaluates it."""
        import repro.core.bounds as bounds_module

        # DP=32 under a 16-device world cap: nothing survives.
        spec = spec_with(hidden=(1024,), seq_len=(512,), batch=(1,),
                         tp=(1,), dp=(32,))

        def no_bounds(*args, **kwargs):
            raise AssertionError("an empty chunk was bounded")

        monkeypatch.setattr(bounds_module, "bound_grid", no_bounds)
        result = stream_sweep(spec, (TopK("iteration_time", k=1),),
                              cluster=CLUSTER, chunk_size=16, prune=True)
        meta = result.meta["prune"]
        assert meta["empty_chunks"] == meta["chunks"] == 1
        assert meta["pruned_chunks"] == meta["exact_chunks"] == 0
        assert result.evaluated_points == 0


class TestCacheKeysAndMemoization:
    def test_content_key_is_cached(self):
        spec = spec_with()
        first = spec.content_key()
        assert spec.content_key() is first  # computed once, reused
        assert spec_with().content_key() == first
        assert spec_with(batch=(1, 2)).content_key() != first

    def test_metric_values_match_breakdown_properties(self):
        grid = ConfigGrid.from_models(random_configs(8, seed=2))
        breakdown = batch_execute(grid, CLUSTER)
        values = metric_values("serialized_comm_fraction", breakdown)
        assert values.dtype == np.float64
        np.testing.assert_array_equal(
            values, breakdown.serialized_comm_fraction)
        with pytest.raises(KeyError, match="unknown metric"):
            metric_values("latency", breakdown)
