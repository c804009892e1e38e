"""CPU-offload training estimate (Section 6.1.3, ZeRO-Offload style).

Optimizer state (the 12 bytes/parameter of mixed-precision Adam) lives in
host memory; each layer's backward pass streams its gradients to the host
and the CPU-updated parameters stream back before the next forward pass.
The host traffic is overlappable in principle -- the question the paper
raises is whether it actually hides under the backward compute, because
the host link is an order of magnitude slower than device interconnects.

The estimate composes the standard device-side execution (from the
executor) with per-layer host transfers and a CPU optimizer step.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.hardware.cluster import ClusterSpec
from repro.hardware.hostlink import PCIE_GEN4_X16, HostLink, transfer_time
from repro.models import memory
from repro.models.trace import training_trace
from repro.sim.executor import DEFAULT_TIMING, TimingModels, execute_trace

__all__ = ["OffloadEstimate", "estimate_offload"]

#: CPU Adam throughput, parameters/second (vectorized implementations on
#: server CPUs reach a few billion parameter updates per second).
DEFAULT_CPU_ADAM_PARAMS_PER_S = 2e9


class OffloadEstimate(Frozen):
    """Cost/benefit of offloading optimizer state to host memory.

    Attributes:
        device_memory_plain: Per-device bytes without offload.
        device_memory_offloaded: Per-device bytes with optimizer state in
            host memory.
        iteration_time_plain: Device-only iteration time, seconds.
        host_traffic_time: Total D2H + H2D transfer time per iteration.
        cpu_step_time: CPU optimizer update time per iteration.
        iteration_time_offloaded: Iteration time with offload, counting
            only the host work that could not hide under device compute.
    """

    __slots__ = ("device_memory_plain", "device_memory_offloaded",
                 "iteration_time_plain", "host_traffic_time", "cpu_step_time",
                 "iteration_time_offloaded")

    device_memory_plain: int
    device_memory_offloaded: int
    iteration_time_plain: float
    host_traffic_time: float
    cpu_step_time: float
    iteration_time_offloaded: float

    def __init__(self, device_memory_plain: int, device_memory_offloaded: int,
                 iteration_time_plain: float, host_traffic_time: float,
                 cpu_step_time: float,
                 iteration_time_offloaded: float) -> None:
        self._set(device_memory_plain=device_memory_plain,
                  device_memory_offloaded=device_memory_offloaded,
                  iteration_time_plain=iteration_time_plain,
                  host_traffic_time=host_traffic_time,
                  cpu_step_time=cpu_step_time,
                  iteration_time_offloaded=iteration_time_offloaded)

    @property
    def memory_saved_fraction(self) -> float:
        if self.device_memory_plain == 0:
            return 0.0
        return 1.0 - self.device_memory_offloaded / self.device_memory_plain

    @property
    def slowdown(self) -> float:
        """Iteration-time cost of offloading (1.0 = free)."""
        if self.iteration_time_plain == 0:
            return 1.0
        return self.iteration_time_offloaded / self.iteration_time_plain

    @property
    def host_work_hidden(self) -> bool:
        """True when host traffic + CPU step hid entirely under compute."""
        return self.iteration_time_offloaded <= self.iteration_time_plain


def estimate_offload(
    model: ModelConfig,
    parallel: ParallelConfig,
    cluster: ClusterSpec,
    host_link: HostLink = PCIE_GEN4_X16,
    cpu_adam_params_per_s: float = DEFAULT_CPU_ADAM_PARAMS_PER_S,
    timing: TimingModels = DEFAULT_TIMING,
) -> OffloadEstimate:
    """Estimate one training iteration with CPU-offloaded optimizer state.

    Host work is streamed per layer (gradients down during backward,
    updated parameters up before the next forward); per layer it hides
    under that layer's device compute when shorter, and the excess lands
    on the critical path -- the just-in-time staging constraint of
    Section 6.1.3.

    Raises:
        ValueError: for a non-positive CPU throughput.
    """
    if cpu_adam_params_per_s <= 0:
        raise ValueError("cpu_adam_params_per_s must be positive")
    trace = training_trace(model, parallel)
    plain = execute_trace(trace, cluster, timing).breakdown

    params_per_layer = model.params_per_layer() // parallel.tp
    grad_bytes = params_per_layer * model.precision.bytes
    param_bytes = params_per_layer * model.precision.bytes
    per_layer_host = (transfer_time(host_link.d2h, grad_bytes)
                      + transfer_time(host_link.h2d, param_bytes))
    per_layer_cpu = params_per_layer / cpu_adam_params_per_s
    layers = model.num_layers
    host_traffic_time = per_layer_host * layers
    cpu_step_time = per_layer_cpu * layers

    # Per-layer hiding budget: the layer's share of device compute.
    per_layer_compute = plain.compute_time / layers
    per_layer_exposed = max(
        0.0, per_layer_host + per_layer_cpu - per_layer_compute
    )
    iteration_offloaded = plain.iteration_time + per_layer_exposed * layers

    plain_memory = memory.memory_footprint(model, parallel)
    offloaded_memory = memory.MemoryFootprint(
        params=plain_memory.params,
        gradients=plain_memory.gradients,
        optimizer=0,  # resident in host memory
        activations=plain_memory.activations,
    )
    return OffloadEstimate(
        device_memory_plain=plain_memory.total,
        device_memory_offloaded=offloaded_memory.total,
        iteration_time_plain=plain.iteration_time,
        host_traffic_time=host_traffic_time,
        cpu_step_time=cpu_step_time,
        iteration_time_offloaded=iteration_offloaded,
    )
