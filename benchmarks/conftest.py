"""Shared fixtures for the benchmark harness.

Each bench regenerates one paper table/figure via its experiment runner,
reports the regeneration time through pytest-benchmark, and asserts the
paper's qualitative bands on the produced rows (shape fidelity, not
absolute numbers -- our substrate is a simulator, not the authors'
testbed).

The session also merges its results into ``BENCH_results.json`` at the
repo root: wall times for every collected bench (keyed by full bench
name) plus any extra measurements recorded through the ``bench_extra``
fixture (keyed by entry name; the batch-vs-scalar cold-grid timings
live there).  Entries from earlier runs that this run did not produce
are kept.  Every entry this run writes carries a ``run`` stamp: git
revision, whether the tree had uncommitted changes (benches usually
run before the commit they measure), ``os.cpu_count()`` and Python
version, so committed numbers are traceable.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import projection
from repro.hardware.cluster import ClusterSpec, mi210_node

_REPO_ROOT = Path(__file__).resolve().parent.parent
_RESULTS_PATH = _REPO_ROOT / "BENCH_results.json"
_EXTRA_KEY = pytest.StashKey[dict]()


@pytest.fixture(scope="session")
def cluster() -> ClusterSpec:
    return mi210_node()


@pytest.fixture(scope="session")
def suite(cluster):
    return projection.fit_operator_models(cluster)


@pytest.fixture(scope="session")
def bench_extra(request) -> dict:
    """Session-wide dict merged into ``BENCH_results.json`` on exit.

    Benches record named measurements that pytest-benchmark does not
    model (e.g. the cold batch-vs-scalar grid comparison) by mutating
    this mapping.
    """
    return request.config.stash[_EXTRA_KEY]


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=_REPO_ROOT, check=True, capture_output=True,
        text=True,
    ).stdout.strip()


def _run_stamp() -> dict:
    """Where and on what tree this bench session ran."""
    try:
        sha = _git("rev-parse", "HEAD")
        # The results file itself is rewritten by every bench run.
        dirty = bool(_git("status", "--porcelain", "--untracked-files=no",
                          "--", ".", f":(exclude){_RESULTS_PATH.name}"))
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = "unknown", None
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }


def _load_results() -> dict:
    try:
        payload = json.loads(_RESULTS_PATH.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    return payload if isinstance(payload, dict) else {}


def _collect_benchmarks(config) -> list:
    session = getattr(config, "_benchmarksession", None)
    records = []
    for bench in getattr(session, "benchmarks", []) or []:
        stats = getattr(bench, "stats", None)
        record = {
            "name": getattr(bench, "name", "?"),
            "fullname": getattr(bench, "fullname", "?"),
            "group": getattr(bench, "group", None),
        }
        for field in ("mean", "min", "max", "stddev", "rounds"):
            value = getattr(stats, field, None)
            if value is not None:
                record[field] = value
        records.append(record)
    return records


def pytest_configure(config):
    config.stash[_EXTRA_KEY] = {}


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    if getattr(config, "workerinput", None) is not None:
        return  # xdist worker: the controller writes the file
    benchmarks = _collect_benchmarks(config)
    extra = config.stash.get(_EXTRA_KEY, {})
    if not benchmarks and not extra:
        return  # collection-only / non-bench invocation: nothing to report
    stamp = dict(_run_stamp(), exit_status=int(exitstatus))
    previous = _load_results()
    # Files written before entries carried their own stamp had one
    # top-level stamp for the whole file; move it onto its entries.
    legacy = {key: previous[key]
              for key in ("git_sha", "python", "engine", "exit_status")
              if key in previous}
    merged_benchmarks = {
        record.get("fullname"): {"run": legacy, **record}
        for record in previous.get("benchmarks", [])
        if isinstance(record, dict)
    }
    for record in benchmarks:
        merged_benchmarks[record["fullname"]] = dict(record, run=stamp)
    merged_extra = {
        name: ({"run": legacy, **entry} if isinstance(entry, dict)
               else entry)
        for name, entry in previous.get("extra", {}).items()
    }
    for name, entry in extra.items():
        merged_extra[name] = (dict(entry, run=stamp)
                              if isinstance(entry, dict) else entry)
    payload = {
        "benchmarks": [merged_benchmarks[name]
                       for name in sorted(merged_benchmarks, key=str)],
        "extra": merged_extra,
        "last_run": stamp,
    }
    try:
        _RESULTS_PATH.write_text(json.dumps(payload, indent=2,
                                            sort_keys=True) + "\n",
                                 encoding="utf-8")
    except OSError:
        pass  # a read-only checkout must not fail the bench run
