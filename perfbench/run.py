"""Run one benchmark workload against this tree and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload search-select --seed 1 \\
        --seconds 25 --trace 0

The benchmark is one client driving the ``repro`` CLI as a closed loop:
it starts one query process, waits for it to exit, then starts the
next, so at most one query runs at a time and each query uses the
CLI's default ``--jobs``.  A query is timed from process start to
process exit (its answer is written by then).  Answers are checked
after the timed loop; see :mod:`checks`.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
query twice, back to back -- untraced, then through :mod:`launcher`,
which records layer spans -- and prints the per-layer metrics of
:mod:`layers` plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Each run also
merges a record (metrics plus the environment it ran in) into
``perfbench/.work/results.json``, keyed by workload, trace flag and
seed, leaving every other entry as it was.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
RESULTS = WORK / "results.json"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import layers  # noqa: E402
import queries  # noqa: E402

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "query_p50_s": "s",
    "query_tail_s": "s",
    "answered_pts_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SETUP_PROBES = 7
SETUP_CODE = ("import repro.cli\n"
              "from repro.runtime.session import Session\n"
              "session = Session()\n"
              "session.fingerprint\n"
              "session.suite()\n")

#: A fixed program that imports NumPy and runs a pure-Python loop: the
#: kinds of work a query's start-up does, with no ``repro`` code.  One
#: runs right before every set-up probe and every untraced query, and
#: each of those is reported at reference speed (its wall time times
#: ``NOMINAL_CALIBRATION_S`` over its calibration's wall time): on a
#: shared host the whole machine's speed drifts by tens of percent
#: within a minute, and the paired ratio cancels most of that drift
#: while keeping everything ``repro`` does in the number.
CALIBRATION_CODE = ("import numpy\n"
                    "total = 0\n"
                    "for i in range(200000):\n"
                    "    total += i * i\n")
#: Median calibration wall time on the reference machine (2-core x86-64
#: VM, Python 3.11, NumPy 2.4).
NOMINAL_CALIBRATION_S = 0.18

#: ``query_tail_s`` is the highest percentile with this many queries
#: beyond it.
TAIL_BEYOND = 10

QUERY_TIMEOUT_S = 60.0
#: Query loops stop issuing queries after this long (a run must end
#: within 180 s); queries not run count as failed.
LOOP_BUDGET_S = 140.0


@dataclass
class Query:
    """One finished query process."""

    argv: List[str]
    wall: float
    rss_mb: float
    code: int
    out: Path
    err: Path
    spans: Optional[Path]
    calibration: Optional[float] = None


def child_env() -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: List[str], env: Dict[str, str],
          err_path: Path) -> Tuple[float, float, int]:
    """Run ``cmd`` to completion: (wall s, peak RSS MB, exit code)."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _timed(code: str, env: Dict[str, str], err_path: Path) -> float:
    wall, _, status = spawn([sys.executable, "-c", code], env, err_path)
    if status != 0:
        raise RuntimeError(f"{err_path.stem} failed with exit code {status}")
    return wall


def setup_times(env: Dict[str, str], run_dir: Path,
                probes: int) -> Tuple[List[float], List[float]]:
    """Set-up probe wall times, raw and at the reference speed.

    Each probe runs right after the calibration program; see
    ``CALIBRATION_CODE``.  The first pair is a warm-up and is
    discarded.
    """
    raw, scaled = [], []
    for index in range(probes + 1):
        calibration = _timed(CALIBRATION_CODE, env,
                             run_dir / f"calibration{index}.err")
        probe = _timed(SETUP_CODE, env, run_dir / f"setup{index}.err")
        if index:
            raw.append(probe)
            scaled.append(probe * NOMINAL_CALIBRATION_S / calibration)
    return raw, scaled


def run_query(workload: str, index: int, argv: List[str], run_dir: Path,
              env: Dict[str, str], traced: bool,
              calibration: Optional[float] = None) -> Query:
    """Run query ``index`` of the plan in its own process.

    Artifacts requests share one cache directory per round (and per
    traced/untraced pass), empty when the round starts.
    """
    tag = "t" if traced else "u"
    out = run_dir / f"{tag}{index}.out"
    full = list(argv)
    if workload == "artifacts":
        per_round = 2 * len(queries.EXPERIMENT_IDS)
        full += ["--cache-dir",
                 str(run_dir / f"{tag}cache{index // per_round}")]
    full += ["-o", str(out)]
    spans = run_dir / f"{tag}{index}.spans.json" if traced else None
    if traced:
        cmd = [sys.executable, str(BENCH / "launcher.py"), str(spans)]
    else:
        cmd = [sys.executable, "-m", "repro"]
    err = run_dir / f"{tag}{index}.err"
    wall, rss_mb, code = spawn(cmd + full, env, err)
    return Query(argv, wall, rss_mb, code, out, err, spans, calibration)


def run_queries(workload: str, plan: List[List[str]], run_dir: Path,
                env: Dict[str, str], deadline: float,
                traced: bool = False) -> Tuple[List[Query], List[Query]]:
    """The closed loop: one query process at a time, in plan order.

    Without ``traced``, the calibration program runs right before each
    query.  With it, each query runs untraced and then traced, back to
    back, so both see the same machine state.  Returns (untraced,
    traced).
    """
    untraced: List[Query] = []
    spans: List[Query] = []
    for index, argv in enumerate(plan):
        if time.perf_counter() > deadline:
            break
        if traced:
            untraced.append(run_query(workload, index, argv, run_dir, env,
                                      traced=False))
            spans.append(run_query(workload, index, argv, run_dir, env,
                                   traced=True))
        else:
            calibration = _timed(CALIBRATION_CODE, env,
                                 run_dir / "calibration.err")
            untraced.append(run_query(workload, index, argv, run_dir, env,
                                      traced=False, calibration=calibration))
    return untraced, spans


def _stderr_tail(query: Query) -> str:
    try:
        lines = query.err.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return lines[-1] if lines else ""


def check_answers(workload: str, seed: int, done: List[Query],
                  run_dir: Path) -> List[List[str]]:
    """Per-query error lists for the untraced answers."""
    golden = checks.load_golden()
    search_golden = (golden.get(workload, [])
                     if golden.get("seed") == seed else [])
    artifact_golden = golden.get("artifacts", {})
    reference = checks.ScalarReference()
    first: Dict[str, bytes] = {}
    report = []
    for index, query in enumerate(done):
        errors: List[str] = []
        try:
            if query.code != 0:
                errors.append(f"exit code {query.code}: "
                              f"{_stderr_tail(query)}")
            elif workload == "artifacts":
                experiment_id = query.argv[1]
                data = query.out.read_bytes()
                if experiment_id in first and data != first[experiment_id]:
                    errors.append("replay differs from the first request")
                first.setdefault(experiment_id, data)
                expected = artifact_golden.get(experiment_id)
                if expected is not None and checks.digest(data) != expected:
                    errors.append("output differs from the golden digest")
            else:
                document = json.loads(query.out.read_bytes())
                expected = (search_golden[index]
                            if index < len(search_golden) else None)
                errors += checks.check_search(
                    workload, query.argv, document, run_dir / "check.out",
                    reference, expected)
        except Exception as error:  # a broken answer is a failed query
            errors.append(f"check raised {type(error).__name__}: {error}")
        report.append(errors)
    return report


def check_traced(workload: str, untraced: List[Query],
                 traced: List[Query]) -> List[List[str]]:
    """Traced answers must equal the untraced ones."""
    report = []
    for plain, query in zip(untraced, traced):
        errors: List[str] = []
        if query.code != 0:
            errors.append(f"traced exit code {query.code}: "
                          f"{_stderr_tail(query)}")
        elif plain.code == 0:
            try:
                a, b = plain.out.read_bytes(), query.out.read_bytes()
                if workload != "artifacts":
                    a = json.loads(a)["reductions"]
                    b = json.loads(b)["reductions"]
                if a != b:
                    errors.append("traced answer differs from untraced")
            except Exception as error:
                errors.append(f"check raised {type(error).__name__}: "
                              f"{error}")
        report.append(errors)
    return report


def answered_points(workload: str, query: Query) -> int:
    """Feasible grid points (search) or result rows (artifacts)."""
    document = json.loads(query.out.read_bytes())
    if workload == "artifacts":
        return len(document["rows"])
    prune = document.get("prune") or {}
    if prune.get("enabled"):
        return prune["feasible_points"]
    return document["evaluated_points"]


def tail(walls: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with
    ``TAIL_BEYOND`` queries beyond it."""
    ordered = sorted(walls)
    beyond = min(TAIL_BEYOND, len(ordered) - 1)
    return (ordered[len(ordered) - 1 - beyond],
            100.0 * (len(ordered) - beyond) / len(ordered))


def end_to_end(workload: str, done: List[Query],
               setup: List[float]) -> Dict[str, float]:
    walls = [query.wall * NOMINAL_CALIBRATION_S / query.calibration
             for query in done]
    answered = sum(answered_points(workload, query)
                   for query in done if query.code == 0)
    return {
        "query_p50_s": statistics.median(walls),
        "query_tail_s": tail(walls)[0],
        "answered_pts_per_s": answered / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(query.rss_mb for query in done),
    }


def per_layer(workload: str, untraced: List[Query],
              traced: List[Query]) -> Dict[str, float]:
    documents = [json.loads(query.spans.read_bytes())
                 for query in traced if query.spans.exists()]
    answers = ([json.loads(query.out.read_bytes())
                for query in traced if query.code == 0]
               if workload != "artifacts" else [])
    metrics = layers.aggregate(documents, answers)
    plain = sum(query.wall for query in untraced[:len(traced)])
    overhead = sum(query.wall for query in traced) - plain
    metrics["tracing.overhead_s"] = overhead
    metrics["tracing.overhead_frac"] = overhead / plain
    missing = sorted({name for document in documents
                      for name in document["missing"]})
    if missing:
        print(f"warning: tracing targets missing from this tree: "
              f"{', '.join(missing)}", file=sys.stderr)
    return metrics


def _git(*args: str) -> Optional[str]:
    try:
        result = subprocess.run(["git", "-C", str(ROOT), *args],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout if result.returncode == 0 else None


def environment(args: argparse.Namespace, planned: int,
                percentile: Optional[float]) -> Dict[str, object]:
    """Where and on what this run measured."""
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_repo = (toplevel is not None
               and Path(toplevel.strip()).resolve() == ROOT)
    sha = _git("rev-parse", "HEAD") if in_repo else None
    status = (_git("status", "--porcelain", "--untracked-files=no")
              if in_repo else None)
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        tree.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        tree.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "git_sha": sha.strip() if sha else None,
        "git_dirty": bool(status.strip()) if status is not None else None,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "queries": planned,
        "tail_percentile": percentile,
        "tail_beyond": TAIL_BEYOND,
    }


def merge_record(key: str, record: Dict[str, object]) -> None:
    """Add one run to the results file without touching other entries."""
    try:
        results = json.loads(RESULTS.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        results = {}
    results[key] = record
    tmp = RESULTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(results, indent=1, sort_keys=True),
                   encoding="utf-8")
    os.replace(tmp, RESULTS)


def import_tree() -> None:
    """Make this tree's ``repro`` importable here and in child processes."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"error: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    compileall.compile_dir(str(SRC), quiet=2)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=queries.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=queries.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    import_tree()
    plan = queries.queries(args.workload, args.seed, args.seconds)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = child_env()
    try:
        deadline = time.perf_counter() + LOOP_BUDGET_S
        if args.trace:
            spawn([sys.executable, "-c", SETUP_CODE], env,
                  run_dir / "warmup.err")
            untraced, traced = run_queries(args.workload, plan, run_dir,
                                           env, deadline, traced=True)
            report = check_answers(args.workload, args.seed, untraced,
                                   run_dir)
            for errors, extra in zip(report, check_traced(
                    args.workload, untraced, traced)):
                errors += extra
            metrics = per_layer(args.workload, untraced, traced)
            units = layers.units()
            percentile = None
            detail = {"query_wall_s": [query.wall for query in untraced],
                      "traced_wall_s": [query.wall for query in traced]}
        else:
            setup_raw, setup = setup_times(env, run_dir, SETUP_PROBES)
            done, _ = run_queries(args.workload, plan, run_dir, env,
                                  deadline)
            report = check_answers(args.workload, args.seed, done, run_dir)
            metrics = end_to_end(args.workload, done, setup)
            detail = {"query_wall_s": [query.wall for query in done],
                      "calibration_s": [query.calibration for query in done],
                      "setup_raw_s": setup_raw}
            units = END_TO_END
            percentile = tail([query.wall for query in done])[1]
        failed = sum(1 for errors in report if errors) \
            + (len(plan) - len(report))
        for index, errors in enumerate(report):
            for error in errors[:3]:
                print(f"query {index} failed: {error}", file=sys.stderr)
        record = {
            "environment": environment(args, len(plan), percentile),
            "attempted": len(plan),
            "failed": failed,
            "failed_frac": failed / len(plan),
            "metrics": metrics,
            "detail": detail,
        }
        WORK.mkdir(parents=True, exist_ok=True)
        merge_record(f"{args.workload}/trace{args.trace}/seed{args.seed}",
                     record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(plan)} "
          f"queries, {failed} failed (failed_frac {failed / len(plan):g})")
    if percentile is not None:
        print(f"query_tail_s is the p{percentile:.1f} query time "
              f"({TAIL_BEYOND} of {len(plan)} queries beyond it)")
    for name, value in metrics.items():
        print(f"{name:30s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(plan),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
