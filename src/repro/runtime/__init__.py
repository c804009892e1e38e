"""Shared runtime layer: sessions, caching, and streaming sweeps.

Applies the paper's own cost-amortization principle to the harness:
:class:`Session` fits each operator-model suite exactly once per
process and replays whole
:class:`~repro.experiments.base.ExperimentResult` documents, one entry
per experiment, through a content-keyed :class:`ResultCache`
(optionally persisted under ``~/.cache/repro``).  Experiments run
serially; the only parallelism is the process pool of exhaustive
:func:`~repro.runtime.megasweep.stream_sweep` sweeps.
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
    "resolve_session": "repro.runtime.session",
    "set_session": "repro.runtime.session",
})
