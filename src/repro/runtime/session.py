"""The shared runtime ``Session``: one cluster, one cache, one fit.

The paper's methodology is cost amortization -- profile one baseline,
fit operator models once, and project every other configuration.  The
``Session`` object applies the same principle to the harness itself:

* it owns the cluster and timing models every experiment runs against,
* it memoizes fitted :class:`~repro.core.projection.OperatorModelSuite`
  objects by content key (cluster + baseline + timing), so each suite
  is fitted **exactly once per process** no matter how many experiments
  ask for it,
* it fronts a content-keyed :class:`~repro.runtime.cache.ResultCache`
  (optionally persisted on disk) in which an experiment stores exactly
  one entry, its whole
  :class:`~repro.experiments.base.ExperimentResult` document -- no
  finer-grained entry was ever read back at the sizes the experiments
  run, so traces and grids are recomputed -- and
* it runs the experiment registry serially, in registry order.

A process-wide default session (:func:`get_session`) lets module-level
``run()`` functions share the memoized state without passing it
through every call; passing an explicit ``Session`` overrides it
everywhere the experiment layer accepts one.
"""

from __future__ import annotations

import time
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.hardware.cluster import ClusterSpec, mi210_node
from repro.hardware.timing import DEFAULT_TIMING, TimingModels
from repro.runtime.cache import CACHE_VERSION, ResultCache
from repro.runtime.keys import cache_key, fingerprint
from repro.sim.checkflag import check_enabled, validation_count

if TYPE_CHECKING:
    from repro.core.gridplan import GridSpec
    from repro.core.hyperparams import ModelConfig
    from repro.core.projection import OperatorModelSuite
    from repro.core.reducers import Reducer
    from repro.experiments.base import ExperimentResult
    from repro.models.graph import Trace
    from repro.runtime.megasweep import SweepResult
    from repro.sim.executor import ExecutionResult

__all__ = ["Session", "get_session", "set_session", "resolve_session"]


class Session:
    """Shared runtime state for experiment and sweep execution.

    The session caches two things: fitted operator-model suites (in
    memory) and whole experiment results (in :attr:`cache`).
    :meth:`execute` is the plain scalar engine plus the session's
    ``check``; :meth:`stream_sweep` stores chunk records only when asked
    (``use_cache``).

    Args:
        cluster: Default testbed for every experiment (MI210 node).
        timing: Default compute timing models.
        cache: An existing :class:`ResultCache` to front; mutually
            exclusive with ``cache_dir``.
        cache_dir: Directory for a persistent on-disk cache; when both
            ``cache`` and ``cache_dir`` are None the cache is
            memory-only.
        check: Validate every execution and batched breakdown against
            the engine invariants (:mod:`repro.core.invariants`),
            raising :class:`~repro.core.invariants.InvariantError` on
            violation.  ``None`` (the default) defers to the
            ``REPRO_CHECK`` environment variable.
    """

    def __init__(self,
                 cluster: Optional[ClusterSpec] = None,
                 timing: Optional[TimingModels] = None,
                 cache: Optional[ResultCache] = None,
                 cache_dir: Optional[str] = None,
                 check: Optional[bool] = None) -> None:
        if cache is not None and cache_dir is not None:
            raise ValueError("pass either cache or cache_dir, not both")
        self.check = check_enabled(check)
        self.cluster = cluster if cluster is not None else mi210_node()
        self.timing = timing if timing is not None else DEFAULT_TIMING
        self.cache = cache if cache is not None else (
            ResultCache(cache_dir=cache_dir)
        )
        self._suites: Dict[str, OperatorModelSuite] = {}
        self._suite_fits: Dict[str, int] = {}
        self._fingerprint: Optional[str] = None

    @property
    def fingerprint(self) -> str:
        """Content fingerprint of the session's cluster + timing models."""
        if self._fingerprint is None:
            self._fingerprint = fingerprint(
                CACHE_VERSION, self.cluster, self.timing
            )
        return self._fingerprint

    # -- operator-model suites -------------------------------------------

    def suite(self,
              cluster: Optional[ClusterSpec] = None,
              baseline_model: Optional[ModelConfig] = None,
              timing: Optional[TimingModels] = None,
              reference_ar_bytes: int = 32 * 1024 * 1024,
              reference_group: Optional[int] = None
              ) -> "OperatorModelSuite":
        """A fitted operator-model suite, memoized by content key.

        The key covers the cluster, baseline model (default
        :data:`~repro.core.projection.DEFAULT_BASELINE`), timing models,
        and collective reference parameters; equal configurations share
        one fit per process.
        """
        from repro.core.projection import (
            DEFAULT_BASELINE,
            fit_operator_models,
        )

        if baseline_model is None:
            baseline_model = DEFAULT_BASELINE
        cluster = cluster if cluster is not None else self.cluster
        timing = timing if timing is not None else self.timing
        key = fingerprint("suite", cluster, baseline_model, timing,
                          reference_ar_bytes, reference_group)
        suite = self._suites.get(key)
        if suite is None:
            suite = fit_operator_models(
                cluster,
                baseline_model=baseline_model,
                timing=timing,
                reference_ar_bytes=reference_ar_bytes,
                reference_group=reference_group,
            )
            self._suites[key] = suite
            self._suite_fits[key] = self._suite_fits.get(key, 0) + 1
        return suite

    @property
    def suite_fit_count(self) -> int:
        """Total operator-model fits performed by this session."""
        return sum(self._suite_fits.values())

    def suite_fits(self) -> Dict[str, int]:
        """Fit count per suite key (every value should stay at 1)."""
        return dict(self._suite_fits)

    # -- checked engine call ----------------------------------------------

    def execute(self,
                trace: Trace,
                cluster: Optional[ClusterSpec] = None,
                timing: Optional[TimingModels] = None) -> ExecutionResult:
        """:func:`repro.sim.executor.execute_trace` on the session's
        cluster and timing models, validated when ``check`` is on."""
        from repro.sim.executor import execute_trace

        result = execute_trace(
            trace,
            cluster if cluster is not None else self.cluster,
            timing if timing is not None else self.timing,
        )
        if self.check:
            from repro.sim.checker import validate_execution

            validate_execution(result)
        return result

    def stream_sweep(self,
                     spec: "GridSpec",
                     reducers: Sequence["Reducer"],
                     cluster: Optional[ClusterSpec] = None,
                     timing: Optional[TimingModels] = None,
                     mode: str = "execute",
                     scenario: Optional[object] = None,
                     chunk_size: Optional[int] = None,
                     jobs: Optional[int] = 1,
                     prune: bool = False,
                     use_cache: bool = True) -> "SweepResult":
        """Cache-backed streaming sweep over a lazy grid.

        Wraps :func:`repro.runtime.megasweep.stream_sweep`, passing the
        session's result cache (``use_cache=False`` bypasses it): each
        chunk's reducer payloads are stored under a content key, so
        re-running the same sweep -- or a larger sweep sharing a prefix
        of chunks -- replays instead of re-evaluating.  Pruned and
        exhaustive sweeps share exact chunk records; a pruned sweep
        recomputes its chunk bounds and stores nothing else.

        In ``"project"`` mode the operator-model suite comes from
        :meth:`suite` (fitted once per session).  The sweep inherits
        the session's ``check`` flag; ``jobs`` passes through to
        :func:`~repro.runtime.megasweep.stream_sweep`.
        """
        from repro.core.gridplan import DEFAULT_CHUNK_SIZE
        from repro.runtime.megasweep import stream_sweep

        cluster = cluster if cluster is not None else self.cluster
        timing = timing if timing is not None else self.timing
        return stream_sweep(
            spec,
            reducers,
            cluster=cluster,
            timing=timing,
            mode=mode,
            suite=(self.suite(cluster, timing=timing)
                   if mode == "project" else None),
            scenario=scenario,
            chunk_size=(chunk_size if chunk_size is not None
                        else DEFAULT_CHUNK_SIZE),
            jobs=jobs,
            check=self.check,
            prune=prune,
            cache=self.cache if use_cache else None,
        )

    # -- experiment execution --------------------------------------------

    def _invoke(self, runner: Callable[..., ExperimentResult]
                ) -> ExperimentResult:
        """Call a registry runner, passing ``session=self`` if accepted.

        Reads the parameter names off the runner's code object:
        :func:`inspect.signature` would load :mod:`inspect` (about 6 ms)
        into every experiment process for this one check.
        """
        code = getattr(runner, "__code__", None)
        if code is not None and "session" in code.co_varnames[
                :code.co_argcount + code.co_kwonlyargcount]:
            return runner(session=self)
        return runner()

    def run(self, experiment_id: str,
            use_cache: bool = True) -> ExperimentResult:
        """Run (or replay) one registered experiment.

        Cache keys cover the experiment id and the session fingerprint,
        so sessions on different clusters or timing models never share
        entries.  The returned result carries :class:`RunMeta`; its
        ``checked`` says whether any validator ran during this call,
        not merely whether checking was on, so a cache hit reports
        False.
        """
        from repro.experiments import registry
        from repro.experiments.base import ExperimentResult, RunMeta

        if experiment_id not in registry.EXPERIMENTS:
            registry.get_experiment(experiment_id)  # KeyError naming ids
        key = cache_key("experiment-result", CACHE_VERSION, experiment_id,
                        self.fingerprint)
        start = time.perf_counter()
        if use_cache:
            cached = self.cache.get(key)
            if isinstance(cached, dict):
                result = ExperimentResult.from_dict(cached)
                meta = RunMeta(wall_time_s=time.perf_counter() - start,
                               cache="hit", session=self.fingerprint,
                               checked=False)
                return result.with_meta(meta)
        validations = validation_count()
        result = self._invoke(registry.get_experiment(experiment_id))
        if use_cache:
            self.cache.put(key, result.to_dict())
        meta = RunMeta(wall_time_s=time.perf_counter() - start,
                       cache="miss" if use_cache else "off",
                       session=self.fingerprint,
                       checked=validation_count() > validations)
        return result.with_meta(meta)

    def run_all(self,
                experiment_ids: Optional[Sequence[str]] = None,
                use_cache: bool = True) -> List[ExperimentResult]:
        """Run every registered experiment serially, in registry order.

        Args:
            experiment_ids: Restrict to a subset, preserving the given
                order.
        """
        from repro.experiments import registry

        if experiment_ids is None:
            experiment_ids = list(registry.EXPERIMENTS)
        return [self.run(experiment_id, use_cache=use_cache)
                for experiment_id in experiment_ids]


_default_session: Optional[Session] = None


def get_session() -> Session:
    """The process-wide default session (created lazily, memory-only)."""
    global _default_session
    if _default_session is None:
        _default_session = Session()
    return _default_session


def set_session(session: Optional[Session]) -> Optional[Session]:
    """Replace the default session; returns the previous one.

    Pass None to drop the default so the next :func:`get_session`
    builds a fresh one (useful in tests).
    """
    global _default_session
    previous = _default_session
    _default_session = session
    return previous


def resolve_session(session: Optional[Session]) -> Session:
    """An explicit session if given, else the process default."""
    return session if session is not None else get_session()
