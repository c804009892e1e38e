"""repro: Comp-vs-Comm -- computation vs. communication scaling analysis
for future Transformers on future hardware.

A reproduction of "Tale of Two Cs: Computation vs. Communication Scaling
for Future Transformers on Future Hardware" (IISWC 2023).  The library
provides:

* an **algorithmic analysis** of Transformer compute-operation and
  communication-byte scaling under data and tensor parallelism
  (:mod:`repro.core.flops`, :mod:`repro.core.edge`,
  :mod:`repro.core.slack`);
* a **simulated GPU testbed** -- calibrated operator and collective
  timing models, clusters, and a two-stream execution engine
  (:mod:`repro.hardware`, :mod:`repro.sim`);
* the paper's **empirical strategy** -- ROI extraction, operator-level
  runtime models, and projection of hundreds of future model/hardware
  configurations from a single profiled baseline
  (:mod:`repro.core.roi`, :mod:`repro.core.projection`,
  :mod:`repro.core.strategy`);
* **hardware-evolution scenarios** and every table/figure of the paper's
  evaluation as a runnable experiment (:mod:`repro.core.evolution`,
  :mod:`repro.experiments`).

Quickstart::

    from repro import ModelConfig, ParallelConfig, mi210_node
    from repro.models.trace import training_trace
    from repro.sim import execute_trace

    model = ModelConfig(name="my-llm", hidden=8192, seq_len=2048,
                        batch=1, num_layers=4, num_heads=64)
    result = execute_trace(training_trace(model, ParallelConfig(tp=16, dp=8)),
                           mi210_node())
    print(result.breakdown.serialized_comm_fraction)
"""

from repro._lazy import lazy_namespace

__version__ = "1.1.0"

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "Breakdown": "repro.sim.breakdown",
    "ClusterSpec": "repro.hardware.cluster",
    "DEVICE_CATALOG": "repro.hardware.specs",
    "DeviceSpec": "repro.hardware.specs",
    "LayerType": "repro.core.hyperparams",
    "MI210": "repro.hardware.specs",
    "ModelConfig": "repro.core.hyperparams",
    "ParallelConfig": "repro.core.hyperparams",
    "Precision": "repro.hardware.specs",
    "ResultCache": "repro.runtime.cache",
    "Session": "repro.runtime.session",
    "__version__": __name__,
    "execute_trace": "repro.sim.executor",
    "get_device": "repro.hardware.specs",
    "get_session": "repro.runtime.session",
    "mi210_node": "repro.hardware.cluster",
    "multi_node_cluster": "repro.hardware.cluster",
    "set_session": "repro.runtime.session",
})
