"""Regenerate ``golden.json``: answer digests for the default seed.

Usage (from the root of a checkout)::

    python3 perfbench/golden.py

Runs the first :data:`GOLDEN_QUERIES` queries of each search workload
and every experiment id in this process, and stores the digest of each
search answer's ``reductions`` and of each experiment's output bytes.
Regenerate only when a change is meant to alter simulated numbers.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import queries  # noqa: E402

#: Search queries pinned per workload (more than a default-length run
#: issues).
GOLDEN_QUERIES = 64


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    golden = {"seed": queries.DEFAULT_SEED}
    with tempfile.TemporaryDirectory(dir=BENCH) as scratch:
        out = Path(scratch) / "answer"
        for workload in ("search-select", "search-scan"):
            golden[workload] = [
                checks.reductions_digest(json.loads(checks.run_cli(
                    queries.search_query(workload, queries.DEFAULT_SEED,
                                         index), out)))
                for index in range(GOLDEN_QUERIES)
            ]
        golden["artifacts"] = {
            experiment_id: checks.digest(checks.run_cli(
                ["experiment", experiment_id, "--format", "json"], out))
            for experiment_id in queries.EXPERIMENT_IDS
        }
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
