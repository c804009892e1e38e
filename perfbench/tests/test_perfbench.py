"""Tests of the benchmark itself (not of ``repro``).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The generator tests take a second; the path and per-layer tests run a
few dozen real queries and take about a minute.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import queries  # noqa: E402
import run  # noqa: E402

SEARCH = ("search-select", "search-scan")


@pytest.fixture
def scratch():
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as path:
        yield Path(path)


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert queries.queries(workload, 5, 20) == queries.queries(workload, 5, 20)
    assert queries.queries(workload, 5, 20) != queries.queries(workload, 6, 20)


@pytest.mark.parametrize("workload", SEARCH)
def test_longer_runs_extend_shorter_ones(workload):
    short = queries.queries(workload, 3, 10)
    long = queries.queries(workload, 3, 60)
    assert len(long) > len(short)
    assert long[:len(short)] == short


def test_artifacts_request_every_id_twice_per_round():
    plan = queries.queries("artifacts", 4, 20)
    ids = [argv[1] for argv in plan]
    assert sorted(ids) == sorted(list(queries.EXPERIMENT_IDS) * 2)


def test_experiment_ids_are_the_registry():
    from repro.experiments.registry import EXPERIMENTS

    assert list(queries.EXPERIMENT_IDS) == list(EXPERIMENTS)


def test_frozen_axes_and_metrics_match_the_program():
    from repro.core.bounds import BOUNDED_METRICS
    from repro.experiments.ext_designspace import DESIGN_AXES

    assert queries.BOUNDED_METRICS == BOUNDED_METRICS
    for name, values in DESIGN_AXES.items():
        assert set(values) <= set(queries.AXES[name.replace("_", "-")])


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_every_argv_parses(workload):
    from repro.cli import build_parser

    parser = build_parser()
    for seed in (1, 2):
        for argv in queries.queries(workload, seed, 40):
            parser.parse_args(argv)


@pytest.mark.parametrize("workload", SEARCH)
def test_every_search_query_has_the_same_raw_size(workload):
    sizes = set()
    for argv in queries.queries(workload, 9, 20):
        raw = 1
        for flag in ("--hidden", "--seq-len", "--batch", "--tp", "--dp"):
            raw *= len(argv[argv.index(flag) + 1].split(","))
        sizes.add(raw)
    assert len(sizes) == 1 and 10_000 <= sizes.pop() <= 100_000


@pytest.mark.parametrize("workload", SEARCH)
def test_select_takes_the_pruned_path_and_scan_does_not(workload, scratch):
    # Twelve queries cover every mode x reducer stratum once.
    for index in range(12):
        argv = queries.search_query(workload, 2, index)
        answer = json.loads(checks.run_cli(argv, scratch / "answer"))
        enabled = bool((answer["prune"] or {}).get("enabled"))
        assert enabled == (workload == "search-select"), argv


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(queries.WORKLOADS)
    units = {**run.END_TO_END, **layers.units()}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


#: Small traced plans that still reach every layer of their workload.
def _small_plan(workload):
    if workload == "artifacts":
        return [["experiment", experiment_id, "--format", "json"]
                for experiment_id in ("figure-15", "table-3", "extension-zero",
                                      "figure-15", "table-3",
                                      "extension-zero")]
    return [queries.search_query(workload, 1, index) for index in range(6)]


@pytest.mark.parametrize("workload", queries.WORKLOADS)
def test_layer_metrics_are_nonzero_on_their_workload(workload, scratch):
    plan = _small_plan(workload)
    untraced, traced = run.run_queries(workload, plan, scratch,
                                       run.child_env(), float("inf"),
                                       traced=True)
    assert all(query.code == 0 for query in untraced + traced)
    for plain, query in zip(untraced, traced):
        assert plain.out.read_bytes() == query.out.read_bytes() \
            or workload != "artifacts"
    metrics = run.per_layer(workload, untraced, traced)
    zero = [name for name, _, assigned, _ in layers.LAYER_METRICS
            if assigned == workload and not metrics[name]]
    assert not zero
