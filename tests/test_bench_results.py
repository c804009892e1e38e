"""The bench session's ``BENCH_results.json`` merge keeps what it does
not rewrite byte for byte (``benchmarks/conftest.py``)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", ROOT / "benchmarks" / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = _bench_conftest()
STAMP = {"git_sha": "abc", "git_dirty": False, "cpu_count": 2,
         "python": "3.11.7", "exit_status": 0}


def _rendered(entry) -> str:
    """An entry as it appears in the file, two levels deep."""
    return "\n".join("    " + line if index else line for index, line
                     in enumerate(json.dumps(entry, indent=2).split("\n")))


def test_untouched_entries_keep_their_bytes():
    previous = json.loads(json.dumps({
        "benchmarks": [
            {"fullname": "b::zeta", "mean": 2.0, "run": {"git_sha": "old"}},
            {"fullname": "b::alpha", "mean": 1.0, "run": {"git_sha": "old"}},
        ],
        "extra": {
            "zz_hand_ordered": {"claim": "x", "a": [1, 2], "run": {}},
            "prune": {"speedup": 0.7, "run": {"git_sha": "old"}},
            "aa_last": {"method": "y", "commits": {"parent": "p"}},
        },
        "last_run": {"git_sha": "old"},
    }))
    text = BENCH.render_results(previous)
    merged = BENCH.merge_results(
        previous,
        [{"fullname": "b::alpha", "name": "alpha", "mean": 0.5},
         {"fullname": "b::new", "name": "new", "mean": 3.0}],
        {"prune": {"speedup": 1.23, "exact_chunks": 2},
         "new_entry": {"z": 1, "a": 2}},
        STAMP)
    out = BENCH.render_results(merged)
    for entry in (previous["benchmarks"][0],
                  previous["extra"]["zz_hand_ordered"],
                  previous["extra"]["aa_last"]):
        assert _rendered(entry) in text
        assert _rendered(entry) in out
    # Rewritten entries keep their place; new ones go last.
    assert [r["fullname"] for r in merged["benchmarks"]] == [
        "b::zeta", "b::alpha", "b::new"]
    assert list(merged["extra"]) == [
        "zz_hand_ordered", "prune", "aa_last", "new_entry"]
    assert merged["extra"]["prune"] == {
        "exact_chunks": 2, "run": BENCH._sorted_keys(STAMP),
        "speedup": 1.23}
    assert list(merged["extra"]["new_entry"]) == ["a", "run", "z"]
    assert merged["benchmarks"][1]["mean"] == 0.5


def test_committed_file_round_trips():
    text = (ROOT / "BENCH_results.json").read_text(encoding="utf-8")
    previous = json.loads(text)
    merged = BENCH.merge_results(previous, [], {}, previous["last_run"])
    assert BENCH.render_results(merged) == text
