"""Traced launcher: run one ``repro`` CLI query with layer spans recorded.

Usage::

    python perfbench/launcher.py SPANS.json <repro argv...>

The launcher times ``import repro.cli``, wraps the public entry points
of each layer listed in :data:`TARGETS` with span recorders, rebinds
every module attribute that refers to a wrapped function (so
``repro.core.batch.layer_trace`` and ``repro.models.trace.layer_trace``
both record), then calls ``repro.cli.main(argv)`` and writes the spans
when it returns.  The program is unchanged; only the launcher knows
about the spans.

A span is ``[name, start, end, parent, leaf_s, n]``: ``parent`` is the
index of the enclosing span (-1 at the root), ``leaf_s`` the time spent
in counted leaves directly inside it, and ``n`` a per-call work count
(rows of a grid, 1 for a cache hit) or ``null``.  ``stable_unit_hash``
runs tens of thousands of times per query, so it is a counted leaf:
its calls and seconds are summed instead of stored one by one.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter


def _len_first(args, kwargs, result, before):
    return len(args[0])


def _len_result(args, kwargs, result, before):
    return len(result)


def _cache_hits(args):
    return args[0].stats.hits


def _cache_hit(args, kwargs, result, before):
    return int(args[0].stats.hits > before)


#: (module, attribute path, span name, work-count extractor, pre-call
#: probe).  Methods are wrapped on their class.
TARGETS = (
    ("repro.cli", "main", "cli.main", None, None),
    ("repro.sim.vectorized", "gemm_times", "vectorized.gemm", None, None),
    ("repro.sim.vectorized", "elementwise_times", "vectorized.elementwise",
     None, None),
    ("repro.sim.vectorized", "cluster_all_reduce_times",
     "vectorized.collective", None, None),
    ("repro.sim.vectorized", "closed_form_breakdown",
     "vectorized.closed_form", None, None),
    ("repro.core.batch", "batch_execute", "batch.execute", _len_first, None),
    ("repro.core.batch", "batch_project", "batch.project", _len_first, None),
    ("repro.core.bounds", "bound_grid", "bounds.bound_grid", _len_first,
     None),
    ("repro.runtime.megasweep", "stream_sweep", "megasweep.stream_sweep",
     None, None),
    ("repro.core.gridplan", "GridSpec.chunk", "gridplan.chunk", _len_result,
     None),
    ("repro.core.projection", "fit_operator_models", "projection.fit", None,
     None),
    ("repro.runtime.session", "Session.suite", "session.suite", None, None),
    ("repro.runtime.session", "Session.run", "session.run", None, None),
    ("repro.runtime.session", "Session.stream_sweep",
     "session.stream_sweep", None, None),
    ("repro.runtime.cache", "ResultCache.get", "cache.get", _cache_hit,
     _cache_hits),
    ("repro.runtime.cache", "ResultCache.put", "cache.put", None, None),
    ("repro.runtime.keys", "cache_key", "keys.cache_key", None, None),
    ("repro.models.trace", "layer_trace", "trace.layer_trace", None, None),
    ("repro.sim.executor", "execute_trace", "executor.execute_trace", None,
     None),
    ("repro.sim.executor", "schedule_with_durations", "executor.schedule",
     None, None),
)

#: Reducer classes whose own observe/merge/finalize are wrapped (the
#: base class covers the methods subclasses inherit).
REDUCER_CLASSES = ("Reducer", "TopK", "ParetoFront", "Histogram",
                   "ArgExtrema", "Collect")
REDUCER_METHODS = ("observe", "merge", "finalize")

#: Counted leaves: (module, function, name).
LEAVES = (("repro.hardware.gemm", "stable_unit_hash", "hash.stable_unit_hash"),)


class Recorder:
    """Spans kept in memory and written once, at exit."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.leaves: Dict[str, List[float]] = {}
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, func: Callable, count=None,
             probe=None) -> Callable:
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            record = [name, _now(), None, stack[-1] if stack else -1, 0.0,
                      None]
            spans.append(record)
            stack.append(len(spans) - 1)
            before = probe(args) if probe is not None else None
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = _now()
            if count is not None:
                record[5] = count(args, kwargs, result, before)
            return result

        return wrapper

    def leaf(self, name: str, func: Callable) -> Callable:
        totals = self.leaves.setdefault(name, [0, 0.0])
        spans = self.spans

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = _now()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = _now() - start
                totals[0] += 1
                totals[1] += elapsed
                stack = self._stack()
                if stack:
                    spans[stack[-1]][4] += elapsed

        return wrapper

    def write(self, path: str, missing: List[str]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "leaves": self.leaves,
                       "missing": missing}, handle)


def _rebind(original: object, wrapper: object) -> None:
    """Point every loaded ``repro`` module attribute bound to
    ``original`` at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attribute, value in list(namespace.items()):
            if value is original:
                namespace[attribute] = wrapper


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(recorder: Recorder) -> List[str]:
    """Wrap every target; returns the targets this tree does not have."""
    missing: List[str] = []
    for module_name, path, name, count, probe in TARGETS:
        try:
            owner, attribute = _resolve(module_name, path)
            original = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        wrapper = recorder.span(name, original, count, probe)
        if hasattr(original, "cache_clear"):
            wrapper.cache_clear = original.cache_clear
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
        else:
            _rebind(original, wrapper)
    try:
        reducers = importlib.import_module("repro.core.reducers")
    except ImportError:
        reducers = None
    for class_name in REDUCER_CLASSES:
        cls: Optional[type] = getattr(reducers, class_name, None)
        if cls is None:
            missing.append(f"repro.core.reducers.{class_name}")
            continue
        for method in REDUCER_METHODS:
            if method in vars(cls):
                setattr(cls, method, recorder.span(f"reducers.{method}",
                                                   vars(cls)[method]))
    for module_name, path, name in LEAVES:
        try:
            owner, attribute = _resolve(module_name, path)
            original = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        _rebind(original, recorder.leaf(name, original))
    return missing


def main(argv: List[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    import_span = ["cli.import", _now(), None, -1, 0.0, None]
    import repro.cli  # noqa: F401  (timed: the import the CLI pays)

    import_span[2] = _now()
    recorder.spans.append(import_span)
    missing = install(recorder)
    entry = sys.modules["repro.cli"].main
    try:
        return entry(cli_argv)
    finally:
        recorder.write(spans_path, missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
