"""Seeded query generator for the benchmark's three workloads.

The program under test only ever sees the argv this module builds: the
generator imports nothing from ``repro``, so the same seed gives the same
queries on every commit.  Query ``i`` of a workload depends only on
``(seed, i)``, so a longer run extends a shorter one instead of
reshuffling it; the golden digests in ``golden.json`` rely on that.

Each search query draws a seeded sub-grid of the design-space axes
(``repro.experiments.ext_designspace.DESIGN_AXES`` with the batch axis
widened to 2048, as in ``benchmarks/test_bench_prune.py``), frozen here
so later changes to the experiment do not move the benchmark.  Every
query of a workload keeps the same number of values per axis, and the
mix is stratified by query index -- mode, reducer set, metric, world
cap and memory cap cycle with fixed periods -- so every run of a given
length has the same shares of query kinds and sizes.  The seed picks
the axis values, ``k`` and ``--largest``, which moves the feasible share
and the answer of every query.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

WORKLOADS = ("search-select", "search-scan", "artifacts")

DEFAULT_SEED = 1

#: Design-space axes (batch widened to 2048).
AXES: Dict[str, Tuple[int, ...]] = {
    "hidden": (1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
               20480, 24576, 32768, 49152, 65536),
    "seq-len": (512, 1024, 2048, 4096, 8192, 16384),
    "batch": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048),
    "tp": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
    "dp": (1, 2, 4, 8, 16, 32, 64, 128, 256, 512),
}

#: How many values of each axis a query keeps, so every query of a
#: workload has the same raw size: 16,384 points for select (each is
#: checked against an exhaustive re-run) and 36,000 for scan.
AXIS_KEEP = {
    "search-select": {"hidden": 8, "seq-len": 4, "batch": 8, "tp": 8,
                      "dp": 8},
    "search-scan": {"hidden": 10, "seq-len": 5, "batch": 9, "tp": 8,
                    "dp": 10},
}

MAX_WORLD = (256, 512, 1024, 2048, 4096)
MAX_MEMORY_GB = ("24", "32", "40", "48", "57.6")

#: ``repro.core.bounds.BOUNDED_METRICS``: the metrics pruning can bound.
BOUNDED_METRICS = ("compute_time", "serialized_comm_time",
                   "overlapped_comm_time", "iteration_time",
                   "exposed_comm_time")

SELECT_REDUCERS = (("top-k",), ("pareto",), ("extrema",), ("top-k", "pareto"))
SCAN_REDUCERS = (("hist", "top-k"), ("hist", "extrema"), ("hist", "pareto"),
                 ("hist", "top-k", "pareto"))

#: Every experiment id registered at the time the benchmark was defined
#: (``repro experiment list``); frozen so the workload cannot drift.
EXPERIMENT_IDS = (
    "table-2", "table-3", "figure-6", "figure-7", "figure-9b", "figure-10",
    "figure-11", "figure-12", "figure-13", "figure-14", "figure-15",
    "speedup-4.3.8", "ablation-precision", "ablation-techniques",
    "extension-moe", "extension-inference", "extension-pipeline",
    "extension-forecast", "extension-zero", "extension-decomposition",
    "extension-offload", "extension-decode", "extension-autotune",
    "ablation-baseline-size", "extension-topology", "extension-seqparallel",
    "extension-hwtrends", "extension-designspace", "extension-energy",
    "extension-compression", "extension-bucketing", "extension-multinode",
    "extension-contention", "validation-laws", "validation-projection",
    "validation-roofline",
)

#: Search queries per second of ``--seconds`` (about the rate one core
#: answers them); a run has at least ``MIN_QUERIES``, so the tail
#: percentile is at least the 66th.
QUERY_RATE = {"search-select": 1.5, "search-scan": 1.0}
MIN_QUERIES = 30

#: Seconds one artifacts round (every id twice) takes at the seed commit.
ARTIFACT_ROUND_S = 36.0


def query_count(workload: str, seconds: float) -> int:
    """Queries in one run of ``workload`` lasting about ``seconds``."""
    if workload == "artifacts":
        rounds = max(1, round(seconds / ARTIFACT_ROUND_S))
        return 2 * len(EXPERIMENT_IDS) * rounds
    return max(MIN_QUERIES, round(seconds * QUERY_RATE[workload]))


def _rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _grid_argv(rng: random.Random, workload: str, index: int) -> List[str]:
    """Seeded sub-grid; the constraints cycle with the query index."""
    argv: List[str] = []
    for name, count in AXIS_KEEP[workload].items():
        values = sorted(rng.sample(AXES[name], count))
        argv += [f"--{name}", ",".join(str(v) for v in values)]
    return argv + ["--max-world", str(MAX_WORLD[(index // 3) % 5]),
                   "--max-memory-gb", MAX_MEMORY_GB[(index // 5) % 5]]


def search_query(workload: str, seed: int, index: int) -> List[str]:
    """Argv (after ``repro``) of search query ``index``."""
    rng = _rng(seed, workload, index)
    argv = ["search"] + _grid_argv(rng, workload, index)
    if workload == "search-select" and index % 3 == 2:
        argv += ["--mode", "project"]
    table = SELECT_REDUCERS if workload == "search-select" else SCAN_REDUCERS
    reducers = table[(index // 3) % len(table)]
    for kind in reducers:
        argv += ["--reduce", kind]
    if "top-k" in reducers or "extrema" in reducers:
        argv += ["--metric", BOUNDED_METRICS[index % len(BOUNDED_METRICS)]]
    if "top-k" in reducers:
        argv += ["--k", str(rng.randint(1, 20))]
        if rng.random() < 0.5:
            argv.append("--largest")
    if workload == "search-select":
        argv.append("--prune")
    return argv + ["--format", "json"]


def artifact_requests(seed: int, rounds: int = 1) -> List[str]:
    """Experiment ids in request order: each id twice per round."""
    order: List[str] = []
    for round_index in range(rounds):
        requests = list(EXPERIMENT_IDS) * 2
        random.Random(f"artifacts:{seed}:{round_index}").shuffle(requests)
        order += requests
    return order


def queries(workload: str, seed: int, seconds: float) -> List[List[str]]:
    """Every query's argv (after ``repro``) for one run."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {WORKLOADS}")
    count = query_count(workload, seconds)
    if workload == "artifacts":
        rounds = count // (2 * len(EXPERIMENT_IDS))
        return [["experiment", experiment_id, "--format", "json"]
                for experiment_id in artifact_requests(seed, rounds)]
    return [search_query(workload, seed, index) for index in range(count)]
