"""Scalar/batch engine equivalence for the vectorized projection engine.

The batch engine's contract is bit-level agreement with the scalar
reference (``execute_trace`` over ``layer_trace``) on every grid entry;
the assertions here use a 1e-12 relative tolerance -- three orders
tighter than the 1e-9 acceptance bound -- so a genuine modelling drift
fails loudly while cross-platform 1-ulp noise does not.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import forecast, scaling
from repro.core.batch import (
    BatchBreakdown,
    ConfigGrid,
    batch_execute,
    batch_project,
)
from repro.core.evolution import PAPER_SCENARIOS, HardwareScenario, \
    scale_durations
from repro.core.hyperparams import ModelConfig, ParallelConfig, Precision
from repro.core.projection import fit_operator_models
from repro.core.roi import overlap_roi_timing
from repro.experiments import sweeps
from repro.models import zoo
from repro.models.trace import layer_trace
from repro.sim.executor import (
    DEFAULT_TIMING,
    execute_trace,
    schedule_with_durations,
)
from tests.parity import parity_partitions

REL = 1e-12


def exact(value: float):
    return pytest.approx(value, rel=REL, abs=0.0)


def assert_matches_scalar(breakdown: BatchBreakdown, grid: ConfigGrid,
                          cluster, timing=DEFAULT_TIMING) -> None:
    """Every grid entry agrees with the scalar reference breakdown."""
    assert len(breakdown) == len(grid)
    for index in range(len(grid)):
        model, parallel = grid.at(index)
        scalar = execute_trace(layer_trace(model, parallel), cluster,
                               timing).breakdown
        entry = breakdown.at(index)
        assert entry.compute_time == exact(scalar.compute_time)
        assert entry.serialized_comm_time == \
            exact(scalar.serialized_comm_time)
        assert entry.overlapped_comm_time == \
            exact(scalar.overlapped_comm_time)
        assert entry.iteration_time == exact(scalar.iteration_time)
        assert float(breakdown.serialized_comm_fraction[index]) == \
            exact(scalar.serialized_comm_fraction)
        assert float(breakdown.exposed_comm_time[index]) == \
            exact(scalar.exposed_comm_time)
        assert float(breakdown.critical_comm_fraction[index]) == \
            exact(scalar.critical_comm_fraction)


def serialized_grid(configs) -> ConfigGrid:
    """The batch grid of ``(hidden, seq_len, tp)`` serialized-sweep
    configurations: the models the scalar sweep builds, at DP = 1."""
    return ConfigGrid.from_models([
        (sweeps.serialized_model(hidden, seq_len, tp),
         ParallelConfig(tp=tp, dp=1))
        for hidden, seq_len, tp in configs
    ])


def overlap_grid(points) -> ConfigGrid:
    """The batch grid of ``(hidden, slb)`` overlap-sweep points at the
    sweep's TP and DP."""
    return ConfigGrid.from_models([
        (sweeps.overlap_model(hidden, slb),
         ParallelConfig(tp=sweeps.OVERLAP_TP, dp=sweeps.OVERLAP_DP))
        for hidden, slb in points
    ])


FIG10_CONFIGS = [(line.hidden, line.seq_len, tp)
                 for line in sweeps.SERIALIZED_LINES
                 for tp in sweeps.TP_DEGREES]

#: Figure 12's highlighted configurations, one per model line.
FIG12_CONFIGS = [(line.hidden, line.seq_len, tp)
                 for line in sweeps.SERIALIZED_LINES
                 for hidden, tp in sweeps.HIGHLIGHTED_CONFIGS
                 if hidden == line.hidden]


def fig10_grid() -> ConfigGrid:
    return serialized_grid(FIG10_CONFIGS)


def fig11_grid() -> ConfigGrid:
    return overlap_grid([(hidden, slb)
                         for hidden in sweeps.OVERLAP_H_VALUES
                         for slb in sweeps.OVERLAP_SLB_VALUES])


# -- ground-truth equivalence on the paper grids ------------------------


def test_fig10_grid_matches_scalar(cluster):
    grid = fig10_grid()
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


def test_fig11_grid_matches_scalar(cluster):
    grid = fig11_grid()
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


def test_fig12_scenario_clusters_match_scalar(cluster):
    grid = serialized_grid(FIG12_CONFIGS)
    for scenario in PAPER_SCENARIOS:
        scaled = scenario.apply(cluster)
        assert_matches_scalar(batch_execute(grid, scaled), grid, scaled)


def test_zoo_and_forecast_pairs_match_scalar(cluster):
    pairs = []
    for entry in zoo.zoo_table():
        model = zoo.MODEL_ZOO[entry["model"]]
        tp = min(scaling.required_tp(model, max_tp=256), model.num_heads)
        while tp > 1 and (model.num_heads % tp or model.ffn_dim % tp):
            tp //= 2
        pairs.append((model, ParallelConfig(tp=max(1, tp), dp=1)))
    for model in forecast.forecast_series(2023, 2027):
        tp = min(scaling.required_tp(model, max_tp=256), model.num_heads)
        pairs.append((model, ParallelConfig(tp=tp, dp=1)))
    grid = ConfigGrid.from_models(pairs)
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


def test_random_grids_match_scalar(cluster):
    rng = random.Random(20230923)
    pairs = []
    for _ in range(24):
        tp = rng.choice([1, 2, 4, 8, 16])
        heads = tp * rng.choice([1, 2, 4])
        hidden = heads * rng.choice([64, 128])
        model = ModelConfig(
            name=f"rand-{len(pairs)}",
            hidden=hidden,
            seq_len=rng.choice([256, 512, 1024, 2048]),
            batch=rng.choice([1, 2, 4]),
            num_heads=heads,
        )
        pairs.append((model, ParallelConfig(tp=tp,
                                            dp=rng.choice([1, 2, 8, 16]))))
    grid = ConfigGrid.from_models(pairs)
    assert_matches_scalar(batch_execute(grid, cluster), grid, cluster)


# -- edge cases ---------------------------------------------------------


def test_tp1_dp1_has_no_communication(cluster):
    grid = ConfigGrid.from_models(
        [(ModelConfig(name="solo", hidden=2048, seq_len=1024, batch=1,
                      num_heads=16), ParallelConfig(tp=1, dp=1))]
    )
    breakdown = batch_execute(grid, cluster)
    assert breakdown.serialized_comm_time[0] == 0.0
    assert breakdown.overlapped_comm_time[0] == 0.0
    assert breakdown.iteration_time[0] == breakdown.compute_time[0]
    assert_matches_scalar(breakdown, grid, cluster)


def test_dp1_has_no_overlapped_comm(cluster):
    grid = serialized_grid([(4096, 1024, 8)])
    breakdown = batch_execute(grid, cluster)
    assert breakdown.overlapped_comm_time[0] == 0.0
    assert breakdown.serialized_comm_time[0] > 0.0
    assert_matches_scalar(breakdown, grid, cluster)


def test_compute_scaled_hardware_exposes_comm(cluster):
    """16x faster compute leaves too little slack to hide DP comm."""
    scenario = HardwareScenario(name="16x compute", compute_scale=16.0,
                                network_scale=1.0)
    scaled = scenario.apply(cluster)
    grid = overlap_grid([(4096, 4096), (8192, 4096)])
    breakdown = batch_execute(grid, scaled)
    assert (breakdown.exposed_comm_time > 0.0).all()
    for index in range(len(grid)):
        roi = overlap_roi_timing(*grid.at(index), scaled)
        assert roi.comm_time > roi.compute_time
    assert_matches_scalar(breakdown, grid, scaled)


# -- DP-invariant slots and jitter-key dedupe ---------------------------
#
# The engine times every slot that does not read DP once per run of equal
# (H, SL, B, TP, heads, FFN) rows, and hashes each distinct jitter key
# once per timing call.  Both are pure re-indexing, so these grids must
# agree with the scalar reference bit for bit, not just within REL.


def _pair(hidden, seq_len, batch, tp, dp, heads, ffn=None):
    model = ModelConfig(name=f"m{hidden}-{heads}-{ffn}", hidden=hidden,
                        seq_len=seq_len, batch=batch, num_heads=heads,
                        ffn_dim=ffn)
    return model, ParallelConfig(tp=tp, dp=dp)


DEDUPE_GRIDS = {
    "dp-only": [_pair(2048, 1024, 2, 4, dp, 16)
                for dp in (2, 4, 8, 16, 64)],
    "non-adjacent-duplicates": [
        _pair(2048, 1024, 2, 4, 8, 16),
        _pair(4096, 512, 1, 8, 8, 32),
        _pair(2048, 1024, 2, 4, 8, 16),
        _pair(1024, 2048, 4, 2, 4, 8),
        _pair(4096, 512, 1, 8, 16, 32),
        _pair(2048, 1024, 2, 4, 2, 16),
    ],
    "heads-and-ffn": [
        _pair(4096, 1024, 2, 4, 8, 16),
        _pair(4096, 1024, 2, 4, 8, 32),
        _pair(4096, 1024, 2, 4, 8, 32, ffn=8192),
        _pair(4096, 1024, 2, 4, 8, 32, ffn=8192),
        _pair(4096, 1024, 2, 4, 8, 16),
    ],
    "single-row": [_pair(3072, 2048, 1, 8, 4, 24)],
    "mixed-dp": [_pair(2048, 1024, 2, tp, dp, 16)
                 for tp in (1, 4) for dp in (1, 2, 1, 8, 8)],
}


def assert_bit_identical(grid: ConfigGrid, cluster, timing) -> None:
    """batch_execute equals the scalar path exactly."""
    breakdown = batch_execute(grid, cluster, timing)
    for index in range(len(grid)):
        model, parallel = grid.at(index)
        scalar = execute_trace(layer_trace(model, parallel), cluster,
                               timing).breakdown
        assert breakdown.at(index) == scalar, index


@pytest.mark.parametrize("name", sorted(DEDUPE_GRIDS))
def test_dp_invariant_dedupe_is_bit_identical(cluster, name):
    grid = ConfigGrid.from_models(DEDUPE_GRIDS[name])
    assert_bit_identical(grid, cluster, DEFAULT_TIMING)


@pytest.mark.parametrize("name", sorted(DEDUPE_GRIDS))
def test_dp_invariant_dedupe_without_jitter(exact_cluster, exact_timing,
                                            name):
    grid = ConfigGrid.from_models(DEDUPE_GRIDS[name])
    assert_bit_identical(grid, exact_cluster, exact_timing)


def test_batch_engine_never_calls_stable_unit_hash(cluster, monkeypatch):
    """The batch engine hashes whole key columns in NumPy
    (``vectorized._unit_hashes``); the per-key ``stable_unit_hash``
    stays the scalar engine's, so the two engines' jitter comes from
    independent implementations."""
    from repro.core.gridplan import GridSpec
    from repro.experiments.ext_designspace import DESIGN_AXES
    from repro.hardware import collectives, elementwise, gemm
    from repro.sim import vectorized

    def forbidden(*parts):
        raise AssertionError(f"batch engine called stable_unit_hash{parts}")

    assert not hasattr(vectorized, "stable_unit_hash")
    for module in (gemm, elementwise, collectives):
        monkeypatch.setattr(module, "stable_unit_hash", forbidden)
    spec = GridSpec(**DESIGN_AXES)
    chunk = next(c for c in spec.chunks(chunk_size=2048)
                 if len(c) and (c.grid.dp > 1).any()
                 and (c.grid.tp > 1).any())
    result = batch_execute(chunk.grid, cluster)
    assert np.isfinite(result.iteration_time).all()


def _budget_chunk():
    """A designspace chunk holding every (TP > 1, DP > 1) parity."""
    from repro.core.gridplan import GridSpec
    from repro.experiments.ext_designspace import DESIGN_AXES

    spec = GridSpec(**DESIGN_AXES)
    chunk = next(c for c in spec.chunks(chunk_size=2048)
                 if len(c) and len(set(zip((c.grid.tp > 1).tolist(),
                                           (c.grid.dp > 1).tolist()))) == 4)
    return chunk.grid


def _count_calls(monkeypatch, module, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(module, name)

        def counted(*args, real=real, name=name, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_one_timing_call_per_family(cluster, monkeypatch):
    """A chunk costs one stacked timing call per operator family, and
    one jitter-hash call each for the GEMMs, the element-wise ops and
    the (single-node) all-reduces."""
    from repro.sim import vectorized

    grid = _budget_chunk()
    counts = _count_calls(monkeypatch, vectorized, (
        "gemm_times", "elementwise_times", "cluster_all_reduce_times",
        "closed_form_breakdown", "_unit_hashes"))
    batch_execute(grid, cluster)
    assert counts == {"gemm_times": 1, "elementwise_times": 1,
                      "cluster_all_reduce_times": 1,
                      "closed_form_breakdown": 1, "_unit_hashes": 3}


def test_one_bound_call_per_family(cluster, monkeypatch):
    """The bound pass is ``batch_execute``'s calls and nothing more: one
    timing call per operator family, three hash calls and one schedule;
    read from an already timed duration table, only the schedule."""
    from repro.core import bounds
    from repro.core.batch import DurationTable
    from repro.sim import vectorized

    grid = _budget_chunk()
    counts = _count_calls(monkeypatch, vectorized, (
        "gemm_times", "elementwise_times", "cluster_all_reduce_times",
        "closed_form_breakdown", "_unit_hashes"))
    bounds.bound_grid(grid, cluster=cluster)
    assert counts == {"gemm_times": 1, "elementwise_times": 1,
                      "cluster_all_reduce_times": 1,
                      "closed_form_breakdown": 1, "_unit_hashes": 3}
    table = DurationTable.of_grid(grid, cluster, DEFAULT_TIMING)
    batch_execute(grid, cluster, table=table)
    counts.update(dict.fromkeys(counts, 0))
    bounds.bound_grid(grid, cluster=cluster, table=table)
    assert counts == {"gemm_times": 0, "elementwise_times": 0,
                      "cluster_all_reduce_times": 0,
                      "closed_form_breakdown": 1, "_unit_hashes": 0}


def test_stable_unit_hash_rejects_numpy_scalars():
    from repro.hardware.gemm import stable_unit_hash

    assert stable_unit_hash("gemm", 5, 2.5) == \
        stable_unit_hash("gemm", 5, 2.5)
    for part in (np.int64(5), np.float64(2.5), np.int32(5), True):
        with pytest.raises(TypeError, match="jitter key part"):
            stable_unit_hash("gemm", part, "fp16")


def test_every_hash_call_site_gets_builtin_keys(cluster, monkeypatch):
    """The scalar engine's GEMM, element-wise and collective jitter
    hashes see only built-in key parts: ``stable_unit_hash`` raises on
    anything else, so a run that completes proves it."""
    from repro.hardware import collectives, elementwise, gemm
    from repro.sim.checker import random_configs

    real_hash = gemm.stable_unit_hash
    seen = []

    def recording(*parts):
        seen.append(parts[0])
        return real_hash(*parts)

    for module in (gemm, elementwise, collectives):
        monkeypatch.setattr(module, "stable_unit_hash", recording)
    for model, parallel in random_configs(24, seed=5):
        execute_trace(layer_trace(model, parallel), cluster)
    assert {"gemm", "collective", "layernorm", "gelu_grad"} <= set(seen)


# -- one pass over every parity -----------------------------------------
#
# Every row takes the op list with both TP and DP all-reduces; a
# one-device collective is a 0.0 slot.  Each entry point must equal the
# per-parity evaluation -- every (TP > 1, DP > 1) partition with its own
# op list -- bit for bit.


def one_pass_grid(seed: int) -> ConfigGrid:
    """Seeded random rows, plus runs of equal DP-free rows whose DP
    crosses 1, so DP = 1 and DP > 1 rows share timing runs."""
    from repro.sim.checker import random_configs

    pairs = random_configs(60, seed)
    runs = [(model, ParallelConfig(tp=parallel.tp, dp=dp))
            for model, parallel in pairs[:20]
            for dp in (1, 4, 1, parallel.dp)]
    grid = ConfigGrid.from_models(pairs + runs)
    parities = set(zip((grid.tp > 1).tolist(), (grid.dp > 1).tolist()))
    assert len(parities) == 4
    return grid


def per_parity_breakdown(grid: ConfigGrid, durations_of) -> tuple:
    """The four breakdown columns evaluated partition by partition;
    ``durations_of(ops, sub)`` times one partition's op list."""
    from repro.core.batch import _slot_kind
    from repro.models.layers import layer_records
    from repro.sim.vectorized import closed_form_breakdown

    out = tuple(np.zeros(len(grid)) for _ in range(4))
    for mask, sub, tp_flag, dp_flag in parity_partitions(grid):
        ops = layer_records(sub, tp_flag, dp_flag)
        kinds = [_slot_kind(op) for op in ops]
        parts = closed_form_breakdown(kinds, durations_of(ops, sub))
        for column, part in zip(out, parts):
            column[mask] = part
    return out


def assert_columns_equal(breakdown: BatchBreakdown, expected) -> None:
    for name, column in zip(("compute_time", "serialized_comm_time",
                             "overlapped_comm_time", "iteration_time"),
                            expected):
        assert np.array_equal(getattr(breakdown, name), column), name


@pytest.mark.parametrize("seed", (3, 11))
@pytest.mark.parametrize("node", ("node", "multi-node"))
def test_one_pass_execute_equals_parity_partitions(node, seed):
    from repro.core.batch import _slot_durations
    from repro.hardware.cluster import mi210_node, multi_node_cluster

    target = mi210_node() if node == "node" else multi_node_cluster()
    grid = one_pass_grid(seed)
    expected = per_parity_breakdown(
        grid, lambda ops, sub: _slot_durations(ops, sub, target,
                                               DEFAULT_TIMING))
    assert_columns_equal(batch_execute(grid, target, DEFAULT_TIMING),
                         expected)


@pytest.mark.parametrize("scenario", (None, PAPER_SCENARIOS[2]),
                         ids=("no-scenario", "scenario"))
def test_one_pass_project_equals_parity_partitions(suite, scenario):
    from repro.core.batch import _project_slot
    from repro.models.layers import COMM

    def durations_of(ops, sub):
        durations = [_project_slot(op, sub, suite) for op in ops]
        if scenario is None:
            return durations
        return [duration / (scenario.network_scale if op.family == COMM
                            else scenario.compute_scale)
                for op, duration in zip(ops, durations)]

    grid = one_pass_grid(5)
    assert_columns_equal(batch_project(grid, suite, scenario=scenario),
                         per_parity_breakdown(grid, durations_of))


# -- projection path (operator scaling laws) ----------------------------


@pytest.fixture(scope="module")
def suite(cluster):
    return fit_operator_models(cluster)


def test_batch_project_matches_scalar_projection(cluster, suite):
    grid = fig10_grid()
    breakdown = batch_project(grid, suite)
    for index in range(len(grid)):
        scalar = suite.project_execution(
            layer_trace(*grid.at(index))).breakdown
        entry = breakdown.at(index)
        assert entry.iteration_time == exact(scalar.iteration_time)
        assert entry.serialized_comm_time == \
            exact(scalar.serialized_comm_time)
        assert float(breakdown.serialized_comm_fraction[index]) == \
            exact(scalar.serialized_comm_fraction)


def test_batch_project_scenario_matches_scaled_durations(cluster, suite):
    grid = fig10_grid()
    scenario = PAPER_SCENARIOS[2]
    breakdown = batch_project(grid, suite, scenario=scenario)
    for index in range(0, len(grid), 5):
        trace = layer_trace(*grid.at(index))
        durations = scale_durations(trace,
                                    suite.project_durations(trace),
                                    scenario)
        scalar = schedule_with_durations(trace, durations).breakdown
        assert breakdown.at(index).iteration_time == \
            exact(scalar.iteration_time)
        assert float(breakdown.serialized_comm_fraction[index]) == \
            exact(scalar.serialized_comm_fraction)


def test_batch_project_unknown_operator_message(cluster, suite):
    grid = fig10_grid()
    pruned = suite.replace(compute_reference={})
    with pytest.raises(KeyError,
                       match="baseline profile has no operator"):
        batch_project(grid, pruned)


# -- grid construction and validation -----------------------------------


def test_grid_validation_errors():
    with pytest.raises(ValueError, match="mismatched lengths"):
        ConfigGrid(hidden=[1024], seq_len=[512, 512], batch=[1],
                   tp=[1], dp=[1], num_heads=[8], ffn_dim=[4096])
    with pytest.raises(ValueError, match="must be >= 1"):
        ConfigGrid(hidden=[1024], seq_len=[0], batch=[1],
                   tp=[1], dp=[1], num_heads=[8], ffn_dim=[4096])
    with pytest.raises(ValueError, match="divisible by num_heads"):
        ConfigGrid(hidden=[1000], seq_len=[512], batch=[1],
                   tp=[1], dp=[1], num_heads=[7], ffn_dim=[4096])
    with pytest.raises(ValueError, match="divisible by TP"):
        ConfigGrid(hidden=[1024], seq_len=[512], batch=[1],
                   tp=[4], dp=[1], num_heads=[2], ffn_dim=[4096])
    with pytest.raises(ValueError, match="mixed precisions"):
        ConfigGrid.from_models([
            (ModelConfig(name="a", hidden=1024, seq_len=512, batch=1,
                         num_heads=8), ParallelConfig()),
            (ModelConfig(name="b", hidden=1024, seq_len=512, batch=1,
                         num_heads=8, precision=Precision.FP32),
             ParallelConfig()),
        ])


def test_grid_round_trips():
    grid = fig10_grid()
    model, parallel = grid.at(3)
    assert model.hidden == int(grid.hidden[3])
    assert parallel.tp == int(grid.tp[3])
    assert model.num_heads % parallel.tp == 0
    assert (grid.tp == 8).sum() == len(sweeps.SERIALIZED_LINES)


# -- one evaluation path for the experiments ----------------------------


def test_sweep_engines_agree(cluster):
    """The scalar sweep helpers the figures use and the batch engine
    agree on the same configurations."""
    configs = [(line.hidden, line.seq_len, tp)
               for line in sweeps.SERIALIZED_LINES
               for tp in (8, 64)]
    batch = batch_execute(serialized_grid(configs), cluster)
    assert sweeps.serialized_sweep(configs, cluster) == pytest.approx(
        batch.serialized_comm_fraction.tolist(), rel=REL)


def test_unknown_engine_rejected(cluster):
    """No engine is selectable: the sweeps and the session take no
    ``engine`` argument."""
    from repro.runtime.session import Session

    with pytest.raises(TypeError, match="engine"):
        sweeps.serialized_sweep([(4096, 1024, 8)], cluster,
                                engine="batch")
    with pytest.raises(TypeError, match="engine"):
        sweeps.overlap_sweep([(1024, 4096)], cluster, engine="batch")
    with pytest.raises(TypeError, match="engine"):
        Session(engine="batch")


def test_session_engines_produce_identical_experiments(cluster):
    """Figures 10 and 12 as the session runs them (scalar) print the
    same fractions the batch engine computes for their configurations."""
    from repro.runtime.session import Session

    session = Session()
    figure_10 = session.run("figure-10", use_cache=False)
    batch = batch_execute(fig10_grid(), cluster)
    assert [row[4] for row in figure_10.rows] == [
        f"{fraction:.3f}" for fraction in batch.serialized_comm_fraction]

    figure_12 = session.run("figure-12", use_cache=False)
    grid = serialized_grid(FIG12_CONFIGS)
    by_scenario = [
        batch_execute(grid, scenario.apply(cluster)).serialized_comm_fraction
        for scenario in PAPER_SCENARIOS
    ]
    assert [row[4] for row in figure_12.rows] == [
        f"{by_scenario[s][c]:.3f}"
        for c in range(len(grid)) for s in range(len(PAPER_SCENARIOS))]


def test_cli_engine_flag(capsys):
    """``--engine`` is gone: argparse rejects it as a usage error."""
    from repro.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["experiment", "figure-11", "--engine", "batch"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine" in capsys.readouterr().err


def test_breakdown_zero_guards():
    zeros = np.zeros(2)
    breakdown = BatchBreakdown(compute_time=zeros.copy(),
                               serialized_comm_time=zeros.copy(),
                               overlapped_comm_time=zeros.copy(),
                               iteration_time=zeros.copy())
    assert (breakdown.serialized_comm_fraction == 0.0).all()
    assert (breakdown.critical_comm_fraction == 0.0).all()
    assert (breakdown.overlapped_pct_of_compute == 0.0).all()
