"""Bandwidth-bound operator timing (LayerNorm, softmax, residual adds...).

Transformer sub-layers interleave GEMMs with element-wise and reduction
operations.  Modern implementations fuse most of them into the preceding
GEMM (Section 2.1); the ones the paper profiles standalone (LayerNorm in
Figure 15(b)) are memory-bandwidth bound: runtime is linear in the number
of elements touched, with reduced bandwidth utilization at small sizes and
a fixed launch overhead.

As with GEMMs, a deterministic size-keyed jitter models per-size kernel
variation so projections carry realistic (~7%) error.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.hardware.gemm import stable_unit_hash
from repro.hardware.specs import DeviceSpec, Precision

__all__ = [
    "ElementwiseTimingModel",
    "DEFAULT_ELEMENTWISE_MODEL",
]


class ElementwiseTimingModel(Frozen):
    """Parameters of the bandwidth-bound operator timing model.

    Attributes:
        saturation_half_bytes: Traffic volume at which achieved bandwidth
            reaches half of peak (small kernels underutilize HBM).
        jitter_amplitude: Half-width of the size-keyed jitter multiplier.
    """

    __slots__ = ("saturation_half_bytes", "jitter_amplitude")

    saturation_half_bytes: float
    jitter_amplitude: float

    def __init__(self, saturation_half_bytes: float = 0.5e6,
                 jitter_amplitude: float = 0.05) -> None:
        self._set(saturation_half_bytes=saturation_half_bytes,
                  jitter_amplitude=jitter_amplitude)

    def achieved_bandwidth(self, nbytes: int, device: DeviceSpec) -> float:
        """Achieved HBM bandwidth for a kernel moving ``nbytes``."""
        saturation = nbytes / (nbytes + self.saturation_half_bytes)
        return device.mem_bw * device.peak_memory_efficiency * saturation

    def time(self, elements: int, device: DeviceSpec, precision: Precision,
             rw_factor: float = 3.0, kind: str = "elementwise") -> float:
        """Execution time of a fused element-wise/reduction kernel.

        Args:
            elements: Tensor element count.
            rw_factor: Bytes of traffic per element per byte of storage
                (LayerNorm reads the input twice -- statistics then
                normalize -- and writes once, hence the default 3).
            kind: Operator label; part of the jitter key so distinct
                operator families get distinct kernel-variation patterns.

        Raises:
            ValueError: if ``elements`` or ``rw_factor`` is not positive.
        """
        if elements <= 0:
            raise ValueError("elements must be positive")
        if rw_factor <= 0:
            raise ValueError("rw_factor must be positive")
        nbytes = int(elements * precision.bytes * rw_factor)
        base = nbytes / self.achieved_bandwidth(nbytes, device)
        base += device.compute_launch_overhead
        if self.jitter_amplitude:
            u = stable_unit_hash(kind, elements, precision.value)
            base *= 1.0 + self.jitter_amplitude * (2.0 * u - 1.0)
        return base

    def without_jitter(self) -> "ElementwiseTimingModel":
        """Copy of this model with kernel-variation jitter disabled."""
        return ElementwiseTimingModel(
            saturation_half_bytes=self.saturation_half_bytes,
            jitter_amplitude=0.0,
        )


#: Model calibrated to the paper's MI210 testbed behaviour.
DEFAULT_ELEMENTWISE_MODEL = ElementwiseTimingModel()
