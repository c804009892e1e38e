"""Registry mapping paper artifacts to their experiment runners.

``python -m repro.experiments.registry`` prints every reproduced table
and figure; :func:`get_experiment` is the lookup the benchmark harness
uses.  :func:`run_all` executes through the shared runtime
:class:`~repro.runtime.session.Session`, so operator-model suites are
fitted once per process and results replay from the keyed cache;
experiments run serially, in registry order.
"""

from __future__ import annotations

import importlib
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
)

from repro.experiments.base import ExperimentResult

if TYPE_CHECKING:
    from repro.runtime.session import Session

__all__ = ["EXPERIMENTS", "get_experiment", "run_all"]

#: Paper artifact id -> module under :mod:`repro.experiments` whose
#: ``run`` is the artifact's runner.
_MODULES: Dict[str, str] = {
    "table-2": "table2_zoo",
    "table-3": "table3_sweep",
    "figure-6": "fig6_memory_gap",
    "figure-7": "fig7_algorithmic",
    "figure-9b": "fig9b_tp_scaling",
    "figure-10": "fig10_serialized",
    "figure-11": "fig11_overlap",
    "figure-12": "fig12_hw_serialized",
    "figure-13": "fig13_hw_overlap",
    "figure-14": "fig14_casestudy",
    "figure-15": "fig15_opmodel",
    "speedup-4.3.8": "speedup",
    "ablation-precision": "ext_precision",
    "ablation-techniques": "ext_techniques",
    "extension-moe": "ext_moe",
    "extension-inference": "ext_inference",
    "extension-pipeline": "ext_pipeline",
    "extension-forecast": "ext_forecast",
    "extension-zero": "ext_zero",
    "extension-decomposition": "ext_decomposition",
    "extension-offload": "ext_offload",
    "extension-decode": "ext_decode",
    "extension-autotune": "ext_autotune",
    "ablation-baseline-size": "ext_baseline",
    "extension-topology": "ext_topology",
    "extension-seqparallel": "ext_seqparallel",
    "extension-hwtrends": "ext_hwtrends",
    "extension-designspace": "ext_designspace",
    "extension-energy": "ext_energy",
    "extension-compression": "ext_compression",
    "extension-bucketing": "ext_bucketing",
    "extension-multinode": "ext_multinode",
    "extension-contention": "ext_contention",
    "validation-laws": "ext_validation",
    "validation-projection": "ext_projection_validation",
    "validation-roofline": "ext_roofline",
}


class _Registry(Mapping[str, Callable[[], ExperimentResult]]):
    """Read-only artifact id -> runner map in registration order.

    Listing ids imports nothing; looking one up imports only that
    experiment's module.
    """

    def __getitem__(self, experiment_id: str
                    ) -> Callable[[], ExperimentResult]:
        module = _MODULES[experiment_id]
        return importlib.import_module(f"repro.experiments.{module}").run

    def __contains__(self, experiment_id: object) -> bool:
        return experiment_id in _MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(_MODULES)

    def __len__(self) -> int:
        return len(_MODULES)


#: Paper artifact id -> zero-argument runner.
EXPERIMENTS: Mapping[str, Callable[[], ExperimentResult]] = _Registry()


def get_experiment(experiment_id: str) -> Callable[[], ExperimentResult]:
    """Look up an experiment runner by artifact id.

    Raises:
        KeyError: with the known ids when the id is unknown.
    """
    if experiment_id not in _MODULES:
        known = ", ".join(_MODULES)
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        )
    return EXPERIMENTS[experiment_id]


def run_all(session: Optional["Session"] = None,
            use_cache: bool = True) -> List[ExperimentResult]:
    """Run every registered experiment serially, in registry order.

    Args:
        session: Runtime session to execute under (default: the
            process-wide shared session, so repeated calls replay from
            its cache and reuse its fitted suites).
        use_cache: Bypass the session's result cache when False.
    """
    from repro.runtime.session import resolve_session

    return resolve_session(session).run_all(use_cache=use_cache)


def main() -> None:
    for result in run_all():
        print(result.to_text())
        print()


if __name__ == "__main__":
    main()
