"""Shared runtime layer: sessions, caching, and parallel execution.

Applies the paper's own cost-amortization principle to the harness:
:class:`Session` fits each operator-model suite exactly once per
process, replays cached :class:`~repro.experiments.base.ExperimentResult`
documents and per-trace durations through a content-keyed
:class:`ResultCache` (optionally persisted under ``~/.cache/repro``),
and fans experiment execution out over a deterministic,
order-preserving thread pool.
"""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "CACHE_VERSION": "repro.runtime.cache",
    "CacheStats": "repro.runtime.cache",
    "ResultCache": "repro.runtime.cache",
    "Session": "repro.runtime.session",
    "cache_key": "repro.runtime.keys",
    "canonicalize": "repro.runtime.keys",
    "default_cache_dir": "repro.runtime.cache",
    "fingerprint": "repro.runtime.keys",
    "get_session": "repro.runtime.session",
    "parallel_map": "repro.runtime.parallel",
    "resolve_jobs": "repro.runtime.parallel",
    "resolve_session": "repro.runtime.session",
    "set_session": "repro.runtime.session",
})
