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
are kept byte for byte, in the file's order (:func:`merge_results`).
Every entry this run writes carries a ``run`` stamp: git
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


def _sorted_keys(value):
    """``value`` with every mapping's keys in sorted order, recursively."""
    if isinstance(value, dict):
        return {key: _sorted_keys(value[key]) for key in sorted(value)}
    if isinstance(value, list):
        return [_sorted_keys(item) for item in value]
    return value


def merge_results(previous: dict, benchmarks: list, extra: dict,
                  stamp: dict) -> dict:
    """``BENCH_results.json``'s payload after one bench session.

    ``previous`` is the loaded file.  Every entry this session did not
    write keeps its position and its key order, so its bytes do not
    change; an entry it rewrites keeps its position, and a new one goes
    last.  The entries this session writes get ``stamp`` as their
    ``run`` and their keys sorted.
    """
    # Files written before entries carried their own stamp had one
    # top-level stamp for the whole file; move it onto its entries.
    legacy = {key: previous[key]
              for key in ("git_sha", "python", "engine", "exit_status")
              if key in previous}

    def stamped(entry, run):
        if not legacy or not isinstance(entry, dict) or "run" in entry:
            return entry
        return {"run": run, **entry}

    merged_benchmarks = {
        record.get("fullname"): stamped(record, legacy)
        for record in previous.get("benchmarks", [])
        if isinstance(record, dict)
    }
    for record in benchmarks:
        merged_benchmarks[record["fullname"]] = _sorted_keys(
            dict(record, run=stamp))
    merged_extra = {name: stamped(entry, legacy)
                    for name, entry in previous.get("extra", {}).items()}
    for name, entry in extra.items():
        merged_extra[name] = _sorted_keys(
            dict(entry, run=stamp) if isinstance(entry, dict) else entry)
    return {
        "benchmarks": list(merged_benchmarks.values()),
        "extra": merged_extra,
        "last_run": _sorted_keys(stamp),
    }


def render_results(payload: dict) -> str:
    """The text of ``BENCH_results.json``, keys in the payload's order."""
    return json.dumps(payload, indent=2) + "\n"


def pytest_sessionfinish(session, exitstatus):
    config = session.config
    if getattr(config, "workerinput", None) is not None:
        return  # xdist worker: the controller writes the file
    benchmarks = _collect_benchmarks(config)
    extra = config.stash.get(_EXTRA_KEY, {})
    if not benchmarks and not extra:
        return  # collection-only / non-bench invocation: nothing to report
    stamp = dict(_run_stamp(), exit_status=int(exitstatus))
    payload = merge_results(_load_results(), benchmarks, extra, stamp)
    try:
        _RESULTS_PATH.write_text(render_results(payload), encoding="utf-8")
    except OSError:
        pass  # a read-only checkout must not fail the bench run
