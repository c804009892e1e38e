"""Answer checks, run in the benchmark process outside the timed window.

Every check compares the ``reductions`` of a search answer (or the
bytes of an experiment answer), never the ``cache_hits`` or ``prune``
accounting, which differ between cold and warm runs by design.  The
checks need ``repro`` importable, so :mod:`run` puts the tree's ``src``
on ``sys.path`` first.

* Golden digests (``golden.json``) pin every answer of the default
  seed, and every experiment's output for any seed.
* A pruned answer must equal the same query run with ``--no-prune``.
* Every reported top-k, extrema and Pareto row is recomputed with the
  scalar reference engine -- ``execute_trace(layer_trace(...))``, or
  ``suite.project_execution`` in project mode -- and must match bit for
  bit.
* An experiment's replay must be byte-identical to its first request.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reductions_digest(document: dict) -> str:
    """Digest of a search answer's ``reductions`` only."""
    return digest(json.dumps(document["reductions"],
                             sort_keys=True).encode("utf-8"))


def load_golden() -> dict:
    try:
        return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def run_cli(argv: Sequence[str], out_path: Path) -> bytes:
    """Run one query in this process with a fresh default session."""
    import repro.cli
    from repro.runtime.session import set_session

    set_session(None)
    code = repro.cli.main(list(argv) + ["-o", str(out_path)])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return out_path.read_bytes()


class ScalarReference:
    """Per-row breakdowns from the scalar reference engine."""

    def __init__(self) -> None:
        from repro.hardware.cluster import mi210_node

        self.cluster = mi210_node()
        self._suite = None

    def breakdown(self, config: Sequence[int], mode: str):
        from repro.core.hyperparams import ModelConfig, ParallelConfig
        from repro.models.trace import layer_trace
        from repro.sim.executor import execute_trace

        hidden, seq_len, batch, tp, dp = config
        model = ModelConfig(name="bench", hidden=hidden, seq_len=seq_len,
                            batch=batch,
                            num_heads=max(tp, max(1, hidden // 128)),
                            ffn_dim=4 * hidden)
        trace = layer_trace(model, ParallelConfig(tp=tp, dp=dp))
        if mode == "project":
            if self._suite is None:
                from repro.runtime.session import Session

                self._suite = Session(cluster=self.cluster).suite()
            return self._suite.project_execution(trace).breakdown
        return execute_trace(trace, self.cluster).breakdown


def _scalar_errors(reductions: Dict[str, dict], mode: str,
                   reference: ScalarReference) -> List[str]:
    errors: List[str] = []

    def expect(label: str, entry: dict, metric: str, key: str) -> None:
        exact = getattr(reference.breakdown(entry["config"], mode), metric)
        if float(exact) != entry[key]:
            errors.append(f"{label}: {entry['config']} {metric} "
                          f"{entry[key]!r} != scalar {float(exact)!r}")

    for label, payload in reductions.items():
        if label.startswith("pareto:"):
            metric_x, metric_y = label.split(":", 1)[1].split("/")
            for entry in payload["entries"]:
                expect(label, entry, metric_x, "x")
                expect(label, entry, metric_y, "y")
        elif label.startswith("top"):
            metric = label.split(":", 1)[1]
            for entry in payload["entries"]:
                expect(label, entry, metric, "value")
        elif label.startswith("extrema:"):
            metric = label.split(":", 1)[1]
            for side in ("min", "max"):
                if payload.get(side) is not None:
                    expect(label, payload[side], metric, "value")
    return errors


def check_search(workload: str, argv: Sequence[str], document: dict,
                 scratch: Path, reference: ScalarReference,
                 golden: Optional[str]) -> List[str]:
    """Errors in one search answer (empty when it is correct)."""
    errors: List[str] = []
    prune = document.get("prune") or {}
    if workload == "search-select" and not prune.get("enabled"):
        errors.append(f"pruned path not taken: {prune}")
    if workload == "search-scan" and prune.get("enabled"):
        errors.append("scan query took the pruned path")
    if golden is not None and reductions_digest(document) != golden:
        errors.append("reductions differ from the golden digest")
    if "--prune" in argv:
        exhaustive = json.loads(run_cli(list(argv) + ["--no-prune"],
                                        scratch))
        if exhaustive["reductions"] != document["reductions"]:
            errors.append("pruned reductions differ from --no-prune")
    mode = "project" if "project" in argv else "execute"
    errors += _scalar_errors(document["reductions"], mode, reference)
    return errors
