"""Hardware substrate: device specs, operator timing, networks, clusters."""

from repro._lazy import lazy_namespace

__all__, __getattr__, __dir__ = lazy_namespace(__name__, {
    "AllReduceAlgorithm": "repro.hardware.collectives",
    "ClusterSpec": "repro.hardware.cluster",
    "DEFAULT_TIMING": "repro.hardware.timing",
    "DEVICE_CATALOG": "repro.hardware.specs",
    "DeviceSpec": "repro.hardware.specs",
    "GemmShape": "repro.models.graph",
    "GemmTimingModel": "repro.hardware.gemm",
    "Link": "repro.hardware.network",
    "MI210": "repro.hardware.specs",
    "TimingModels": "repro.hardware.timing",
    "get_device": "repro.hardware.specs",
    "mi210_node": "repro.hardware.cluster",
    "multi_node_cluster": "repro.hardware.cluster",
})
