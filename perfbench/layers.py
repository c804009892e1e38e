"""Per-layer metrics from the traced run's spans and answers.

Each metric is summed over every query of the run.  ``_s`` metrics are
host seconds: a span's *self* time is its duration minus what its child
spans and counted leaves cover; *inclusive* time counts only outermost
spans of a name, so recursion or nesting is never counted twice.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

#: (metric, unit, workload it is checked on, definition).
LAYER_METRICS: Tuple[Tuple[str, str, str, str], ...] = (
    ("vectorized.gemm_s", "s", "search-scan",
     "self time of sim.vectorized.gemm_times under the batch engine"),
    ("vectorized.elementwise_s", "s", "search-scan",
     "self time of elementwise_times under the batch engine"),
    ("vectorized.collective_s", "s", "search-scan",
     "self time of cluster_all_reduce_times under the batch engine"),
    ("vectorized.closed_form_s", "s", "search-scan",
     "self time of closed_form_breakdown under the batch engine"),
    ("hash.calls", "count", "search-scan",
     "hardware.gemm.stable_unit_hash calls (jitter-hash misses)"),
    ("hash.s", "s", "search-scan", "time in stable_unit_hash"),
    ("batch.execute_s", "s", "search-scan",
     "inclusive time of core.batch.batch_execute"),
    ("batch.project_s", "s", "search-select",
     "inclusive time of core.batch.batch_project"),
    ("batch.self_s", "s", "search-scan",
     "self time of batch_execute and batch_project: slot building and "
     "exemplar validation"),
    ("batch.rows", "count", "search-scan",
     "grid rows given to batch_execute and batch_project"),
    ("batch.rows_per_s", "1/s", "search-scan",
     "batch.rows over batch.execute_s plus batch.project_s"),
    ("reducers.observe_s", "s", "search-scan",
     "inclusive time of reducer observe calls"),
    ("reducers.merge_s", "s", "search-scan",
     "inclusive time of reducer merge calls"),
    ("reducers.finalize_s", "s", "search-scan",
     "inclusive time of reducer finalize calls"),
    ("reducers.observes", "count", "search-scan", "reducer observe calls"),
    ("bounds.s", "s", "search-select",
     "inclusive time of core.bounds.bound_grid"),
    ("bounds.rows", "count", "search-select", "rows given to bound_grid"),
    ("megasweep.self_s", "s", "search-select",
     "self time of runtime.megasweep.stream_sweep: the scheduler"),
    ("megasweep.chunks", "count", "search-select",
     "chunk_count of the answers"),
    ("megasweep.jobs", "count", "search-select",
     "largest jobs value of the answers"),
    ("prune.exact_point_frac", "ratio", "search-select",
     "exact points over feasible points, pruned answers"),
    ("prune.exact_chunk_frac", "ratio", "search-select",
     "exact chunks over chunks exact or pruned, pruned answers"),
    ("prune.useful_row_frac", "ratio", "search-select",
     "rows in the answers over rows evaluated exactly, pruned answers"),
    ("gridplan.chunk_s", "s", "search-select",
     "inclusive time of core.gridplan.GridSpec.chunk"),
    ("gridplan.rows", "count", "search-select",
     "rows returned by GridSpec.chunk"),
    ("cli.import_s", "s", "artifacts", "time to import repro.cli"),
    ("cli.self_s", "s", "artifacts",
     "self time of repro.cli.main: argument parsing, lazy imports, "
     "rendering"),
    ("projection.fit_s", "s", "artifacts",
     "inclusive time of core.projection.fit_operator_models"),
    ("session.suite_fit_s", "s", "artifacts",
     "inclusive time of Session.suite calls that fitted a suite"),
    ("session.suite_fits", "count", "artifacts",
     "fit_operator_models calls made by Session.suite"),
    ("cache.gets", "count", "artifacts", "ResultCache.get calls"),
    ("cache.get_s", "s", "artifacts", "inclusive time of ResultCache.get"),
    ("cache.puts", "count", "artifacts", "ResultCache.put calls"),
    ("cache.put_s", "s", "artifacts", "inclusive time of ResultCache.put"),
    ("cache.hit_ratio", "ratio", "artifacts", "cache hits over gets"),
    ("keys.calls", "count", "artifacts", "runtime.keys.cache_key calls"),
    ("keys.s", "s", "artifacts", "inclusive time of cache_key"),
    ("session.run_s", "s", "artifacts", "inclusive time of Session.run"),
    ("session.stream_sweep_self_s", "s", "search-select",
     "self time of Session.stream_sweep: cache-key closures and set-up"),
    ("trace.layer_trace_calls", "count", "artifacts",
     "models.trace.layer_trace calls"),
    ("trace.layer_trace_s", "s", "artifacts",
     "inclusive time of layer_trace"),
    ("executor.calls", "count", "artifacts",
     "sim.executor.schedule_with_durations calls (one per scalar "
     "schedule)"),
    ("executor.s", "s", "artifacts",
     "inclusive time of execute_trace and schedule_with_durations"),
)

#: Reported by every traced run beside the layer metrics.
OVERHEAD_METRICS = (
    ("tracing.overhead_s", "s",
     "summed traced minus summed untraced query wall time"),
    ("tracing.overhead_frac", "ratio",
     "tracing.overhead_s over summed untraced query wall time"),
)

_BATCH = {"batch.execute", "batch.project"}
_EXECUTOR = {"executor.execute_trace", "executor.schedule"}


class _Totals:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.outer_s: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, int] = defaultdict(int)
        self.engine_self_s: Dict[str, float] = defaultdict(float)
        self.leaf_calls: Dict[str, int] = defaultdict(int)
        self.leaf_s: Dict[str, float] = defaultdict(float)
        self.suite_fit_s = 0.0
        self.suite_fits = 0
        self.outer_executor_s = 0.0

    def add(self, document: dict) -> None:
        spans = document["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, leaf_s, work in spans:
            if parent >= 0:
                child_s[parent] += end - start
        fitted = set()
        for index, (name, start, end, parent, leaf_s, work) in \
                enumerate(spans):
            duration = end - start
            ancestors = []
            cursor = parent
            while cursor >= 0:
                ancestors.append(spans[cursor][0])
                cursor = spans[cursor][3]
            self.calls[name] += 1
            own = duration - child_s[index] - leaf_s
            self.self_s[name] += own
            if name not in ancestors:
                self.outer_s[name] += duration
            if work is not None:
                self.work[name] += work
            if _BATCH.intersection(ancestors):
                self.engine_self_s[name] += own
            if name in _EXECUTOR and not _EXECUTOR.intersection(ancestors):
                self.outer_executor_s += duration
            if name == "projection.fit" and parent >= 0 \
                    and spans[parent][0] == "session.suite":
                fitted.add(parent)
                self.suite_fits += 1
        for index in fitted:
            self.suite_fit_s += spans[index][2] - spans[index][1]
        for name, (calls, seconds) in document["leaves"].items():
            self.leaf_calls[name] += calls
            self.leaf_s[name] += seconds


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def aggregate(span_documents: Iterable[dict],
              answers: Iterable[dict]) -> Dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` for one traced run.

    ``answers`` are the parsed JSON answers of search queries; their
    ``prune``, ``chunk_count`` and ``jobs`` fields supply the scheduler
    counts.
    """
    totals = _Totals()
    for document in span_documents:
        totals.add(document)
    out = totals.outer_s
    work = totals.work
    engine_s = out["batch.execute"] + out["batch.project"]
    metrics = {
        "vectorized.gemm_s": totals.engine_self_s["vectorized.gemm"],
        "vectorized.elementwise_s":
            totals.engine_self_s["vectorized.elementwise"],
        "vectorized.collective_s":
            totals.engine_self_s["vectorized.collective"],
        "vectorized.closed_form_s":
            totals.engine_self_s["vectorized.closed_form"],
        "hash.calls": totals.leaf_calls["hash.stable_unit_hash"],
        "hash.s": totals.leaf_s["hash.stable_unit_hash"],
        "batch.execute_s": out["batch.execute"],
        "batch.project_s": out["batch.project"],
        "batch.self_s": (totals.self_s["batch.execute"]
                         + totals.self_s["batch.project"]),
        "batch.rows": work["batch.execute"] + work["batch.project"],
        "batch.rows_per_s": _ratio(work["batch.execute"]
                                   + work["batch.project"], engine_s),
        "reducers.observe_s": out["reducers.observe"],
        "reducers.merge_s": out["reducers.merge"],
        "reducers.finalize_s": out["reducers.finalize"],
        "reducers.observes": totals.calls["reducers.observe"],
        "bounds.s": out["bounds.bound_grid"],
        "bounds.rows": work["bounds.bound_grid"],
        "megasweep.self_s": totals.self_s["megasweep.stream_sweep"],
        "gridplan.chunk_s": out["gridplan.chunk"],
        "gridplan.rows": work["gridplan.chunk"],
        "cli.import_s": out["cli.import"],
        "cli.self_s": totals.self_s["cli.main"],
        "projection.fit_s": out["projection.fit"],
        "session.suite_fit_s": totals.suite_fit_s,
        "session.suite_fits": totals.suite_fits,
        "cache.gets": totals.calls["cache.get"],
        "cache.get_s": out["cache.get"],
        "cache.puts": totals.calls["cache.put"],
        "cache.put_s": out["cache.put"],
        "cache.hit_ratio": _ratio(work["cache.get"],
                                  totals.calls["cache.get"]),
        "keys.calls": totals.calls["keys.cache_key"],
        "keys.s": out["keys.cache_key"],
        "session.run_s": out["session.run"],
        "session.stream_sweep_self_s":
            totals.self_s["session.stream_sweep"],
        "trace.layer_trace_calls": totals.calls["trace.layer_trace"],
        "trace.layer_trace_s": out["trace.layer_trace"],
        "executor.calls": totals.calls["executor.schedule"],
        "executor.s": totals.outer_executor_s,
    }
    metrics.update(_sweep_counts(answers))
    return metrics


def _answer_rows(reductions: Dict[str, dict]) -> int:
    rows = 0
    for payload in reductions.values():
        if "entries" in payload:
            rows += len(payload["entries"])
        elif "counts" not in payload:
            rows += sum(1 for side in ("min", "max")
                        if payload.get(side) is not None)
    return rows


def _sweep_counts(answers: Iterable[dict]) -> Dict[str, float]:
    chunks = jobs = 0
    exact_points = feasible = exact_chunks = considered = useful = 0
    for answer in answers:
        chunks += answer["chunk_count"]
        jobs = max(jobs, answer["jobs"])
        prune = answer.get("prune") or {}
        if prune.get("enabled"):
            exact_points += prune["exact_points"]
            feasible += prune["feasible_points"]
            exact_chunks += prune["exact_chunks"]
            considered += prune["exact_chunks"] + prune["pruned_chunks"]
            useful += _answer_rows(answer["reductions"])
    return {
        "megasweep.chunks": chunks,
        "megasweep.jobs": jobs,
        "prune.exact_point_frac": _ratio(exact_points, feasible),
        "prune.exact_chunk_frac": _ratio(exact_chunks, considered),
        "prune.useful_row_frac": _ratio(useful, exact_points),
    }


def metric_names() -> List[str]:
    return ([name for name, _, _, _ in LAYER_METRICS]
            + [name for name, _, _ in OVERHEAD_METRICS])


def units() -> Dict[str, str]:
    table = {name: unit for name, unit, _, _ in LAYER_METRICS}
    table.update({name: unit for name, unit, _ in OVERHEAD_METRICS})
    return table
