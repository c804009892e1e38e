"""Admissible bound envelopes: property tests against the exact engines.

The pruning scheduler is only sound if every interval produced by
:mod:`repro.core.bounds` actually brackets the exact engine output, as
IEEE floats, for every configuration.  These tests assert that contract
(``lower <= exact <= upper`` per metric) over seeded-random configs,
every named zoo model, and every paper hardware-evolution scenario --
plus the chunk-level envelopes, cache-record round-trips, and the cache
key / memoization plumbing the scheduler relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import ConfigGrid, batch_execute, batch_project
from repro.core.bounds import (
    BOUNDED_METRICS,
    bound_grid,
    chunk_bounds,
)
from repro.core.evolution import PAPER_SCENARIOS
from repro.core.gridplan import GridSpec, MaxWorldSize
from repro.core.hyperparams import ParallelConfig
from repro.core.reducers import metric_values
from repro.hardware.cluster import mi210_node, multi_node_cluster
from repro.models.zoo import MODEL_ZOO
from repro.sim.checker import random_configs
from repro.sim.executor import DEFAULT_TIMING
from tests.parity import parity_partitions

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


def assert_admissible(grid: ConfigGrid, cluster):
    """``lower <= exact <= upper`` per metric, as IEEE floats; returns
    the exact breakdown and the bounds."""
    exact = batch_execute(grid, cluster)
    bounds = bound_grid(grid, cluster=cluster)
    for name in BOUNDED_METRICS:
        values = metric_values(name, exact)
        lower, upper = bounds.lower[name], bounds.upper[name]
        low_ok = lower <= values
        up_ok = values <= upper
        assert low_ok.all(), (
            f"{name}: lower bound violated at rows "
            f"{np.flatnonzero(~low_ok)[:5].tolist()}")
        assert up_ok.all(), (
            f"{name}: upper bound violated at rows "
            f"{np.flatnonzero(~up_ok)[:5].tolist()}")
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
        assert len(bounds) == len(grid)

    def test_project_mode_zero_width(self):
        from repro.runtime.session import Session

        suite = Session(cluster=CLUSTER).suite()
        grid = ConfigGrid.from_models(random_configs(40, seed=5))
        bounds = bound_grid(grid, mode="project", suite=suite)
        exact = batch_project(grid, suite)
        for name in BOUNDED_METRICS:
            values = metric_values(name, exact)
            np.testing.assert_array_equal(bounds.lower[name], values)
            np.testing.assert_array_equal(bounds.upper[name], values)

    @pytest.mark.parametrize("cluster", (CLUSTER, multi_node_cluster()),
                             ids=("node", "multi-node"))
    def test_one_pass_equals_parity_partitions(self, cluster):
        """Bounding every row with the TP+DP op list is bit-identical
        to bounding each parity partition with its own op list."""
        from repro.core.batch import _dp_free_rows, _reads_dp, _slot_kind
        from repro.core.bounds import _op_bound_durations
        from repro.models.layers import layer_records
        from repro.sim.vectorized import closed_form_breakdown

        grid = ConfigGrid.from_models(random_configs(120, seed=11))
        bounds = bound_grid(grid, cluster=cluster)
        stored = ("compute_time", "serialized_comm_time",
                  "overlapped_comm_time", "iteration_time")
        seen = 0
        for mask, sub, tp_flag, dp_flag in parity_partitions(grid):
            ops = layer_records(sub, tp_flag, dp_flag)
            kinds = [_slot_kind(op) for op in ops]
            per_row = [_reads_dp(op) for op in ops]
            rows = _dp_free_rows(sub)
            for side, durations in zip(
                    (bounds.lower, bounds.upper),
                    _op_bound_durations(ops, sub, rows, cluster,
                                        DEFAULT_TIMING)):
                parts = closed_form_breakdown(kinds, durations,
                                              rows.inverse, per_row)
                for name, part in zip(stored, parts):
                    np.testing.assert_array_equal(side[name][mask], part)
            seen += 1
        assert seen == 4  # every parity partition is exercised

    @pytest.mark.parametrize("cluster", (CLUSTER, multi_node_cluster()),
                             ids=("node", "multi-node"))
    def test_slot_bounds_scale_the_engine_base(self, cluster):
        """GEMM and element-wise slot bounds are the engine's own
        jitter-free durations times ``1 - amp`` and ``1 + amp``, bit for
        bit: no second timing model, no margin."""
        from repro.core.batch import _dp_free_rows, _layer_ops, _op_durations
        from repro.core.bounds import _op_bound_durations
        from repro.models.layers import ELEMENTWISE, GEMM

        grid = ConfigGrid.from_models(random_configs(120, seed=3))
        ops = _layer_ops(grid)
        rows = _dp_free_rows(grid)
        base = _op_durations(ops, grid, rows, cluster,
                             DEFAULT_TIMING.without_jitter())
        lower, upper = _op_bound_durations(ops, grid, rows, cluster,
                                           DEFAULT_TIMING)
        amps = {GEMM: DEFAULT_TIMING.gemm.jitter_amplitude,
                ELEMENTWISE: DEFAULT_TIMING.elementwise.jitter_amplitude}
        seen = set()
        for op, exact_base, low, up in zip(ops, base, lower, upper):
            if op.family not in amps:
                continue
            amp = amps[op.family]
            assert low.tobytes() == (exact_base * (1.0 - amp)).tobytes()
            assert up.tobytes() == (exact_base * (1.0 + amp)).tobytes()
            seen.add(op.family)
        assert seen == set(amps)

    @pytest.mark.parametrize("cluster", (CLUSTER, multi_node_cluster()),
                             ids=("node", "multi-node"))
    def test_designspace_grid_admissible_and_tight(self, cluster):
        """Every feasible row of the design-space grid is bracketed on
        every bounded metric, and the exposed-comm interval is narrower
        than the exact value itself (median over exposed rows)."""
        from repro.experiments.ext_designspace import design_spec

        grid = design_spec(cluster).materialize().grid
        exact, bounds = assert_admissible(grid, cluster)
        values = metric_values("exposed_comm_time", exact)
        exposed = values > 0
        width = (bounds.upper["exposed_comm_time"][exposed]
                 - bounds.lower["exposed_comm_time"][exposed])
        assert np.median(width / values[exposed]) < 1.0

    def test_validation_errors(self):
        grid = ConfigGrid.from_models(random_configs(4, seed=0))
        with pytest.raises(ValueError):
            bound_grid(grid, mode="bogus")
        with pytest.raises(ValueError):
            bound_grid(grid, mode="project")  # no suite


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
        spec = spec_with()
        for index in range(spec.chunk_count(chunk_size)):
            envelope = chunk_bounds(spec, index, chunk_size,
                                    cluster=CLUSTER)
            chunk = spec.chunk(index, chunk_size)
            assert envelope.index == index
            assert envelope.raw_rows == chunk.raw_rows
            assert envelope.rows == len(chunk)
            if len(chunk) == 0:
                assert envelope.lower == {} and envelope.upper == {}
                continue
            exact = batch_execute(chunk.grid, CLUSTER)
            for name in BOUNDED_METRICS:
                values = metric_values(name, exact)
                assert envelope.lower[name] <= values.min(), name
                assert envelope.upper[name] >= values.max(), name

    def test_empty_chunk(self):
        # DP=32 under a 16-device world cap: nothing survives.
        spec = spec_with(hidden=(1024,), seq_len=(512,), batch=(1,),
                         tp=(1,), dp=(32,))
        envelope = chunk_bounds(spec, 0, 16, cluster=CLUSTER)
        assert envelope.rows == 0
        assert envelope.lower == {} and envelope.upper == {}


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
