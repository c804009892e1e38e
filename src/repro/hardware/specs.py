"""Accelerator device specifications (Section 4.3.1 and 4.3.6).

The catalog records the published datasheet numbers for the GPUs the paper
references: the AMD Instinct MI210 testbed, the AMD MI50 -> MI100 and
NVIDIA V100 -> A100 generation pairs used to derive the historical
*flop-vs-bw* scaling ratios, plus newer parts usable as "future hardware"
points.

:class:`DeviceSpec` also supports synthetic scaling (``scaled()``), which is
how the hardware-evolution analysis (Figures 12/13) builds future devices:
compute FLOPS scaled by one factor and network bandwidth by another.

:class:`Precision`, the number format that keys ``DeviceSpec.peak_flops``,
is defined here rather than in :mod:`repro.core.hyperparams` (which
re-exports it): the batch engine and the timing models need the format
but never build a ``ModelConfig``, so they do not load that module.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping

from repro._frozen import Frozen

__all__ = [
    "Precision",
    "DeviceSpec",
    "DEVICE_CATALOG",
    "MI210",
    "get_device",
    "flop_vs_bw_ratio",
]

_TERA = 1e12
_GIGA = 1e9


class Precision(enum.Enum):
    """Number formats used for weights/activations (Section 6.2).

    ``bytes`` is the storage width used for communication-volume
    accounting; compute-throughput scaling per format lives in the device
    specs (:attr:`DeviceSpec.peak_flops`), since narrower formats typically
    scale FLOPS super-linearly while communicated bytes scale only linearly.
    """

    FP32 = "fp32"
    TF32 = "tf32"
    BF16 = "bf16"
    FP16 = "fp16"
    FP8 = "fp8"

    @property
    def bytes(self) -> int:
        """Storage width in bytes (TF32 is stored as 32-bit words)."""
        return _PRECISION_BYTES[self]


_PRECISION_BYTES = {
    Precision.FP32: 4,
    Precision.TF32: 4,
    Precision.BF16: 2,
    Precision.FP16: 2,
    Precision.FP8: 1,
}


class DeviceSpec(Frozen):
    """Performance-relevant parameters of one accelerator.

    Attributes:
        name: Device name (e.g. ``"MI210"``).
        year: Launch year (used by trend derivations).
        peak_flops: Peak dense throughput per precision, FLOP/s.
        mem_bw: HBM bandwidth, bytes/s.
        mem_capacity: HBM capacity, bytes.
        link_bw: Per-direction inter-device link bandwidth, bytes/s.
        ring_allreduce_bw: Peak achievable ring all-reduce bus bandwidth,
            bytes/s (the MI210 node's multiple IF rings reach 150 GB/s).
        compute_launch_overhead: Fixed per-kernel launch latency, seconds.
        network_latency: Per-hop collective latency (alpha term), seconds.
        peak_compute_efficiency: Fraction of peak FLOPS large compute-bound
            GEMMs achieve (GShard reports > 85%; Section 4.2.3).
        peak_memory_efficiency: Fraction of peak HBM bandwidth large
            streaming kernels achieve.
    """

    __slots__ = ("name", "year", "peak_flops", "mem_bw", "mem_capacity",
                 "link_bw", "ring_allreduce_bw", "compute_launch_overhead",
                 "network_latency", "peak_compute_efficiency",
                 "peak_memory_efficiency")

    name: str
    year: int
    peak_flops: Mapping[Precision, float]
    mem_bw: float
    mem_capacity: float
    link_bw: float
    ring_allreduce_bw: float
    compute_launch_overhead: float
    network_latency: float
    peak_compute_efficiency: float
    peak_memory_efficiency: float

    def __init__(self, name: str, year: int,
                 peak_flops: Mapping[Precision, float], mem_bw: float,
                 mem_capacity: float, link_bw: float, ring_allreduce_bw: float,
                 compute_launch_overhead: float = 1e-6,
                 network_latency: float = 10e-6,
                 peak_compute_efficiency: float = 0.85,
                 peak_memory_efficiency: float = 0.80) -> None:
        self._set(name=name, year=year, peak_flops=peak_flops, mem_bw=mem_bw,
                  mem_capacity=mem_capacity, link_bw=link_bw,
                  ring_allreduce_bw=ring_allreduce_bw,
                  compute_launch_overhead=compute_launch_overhead,
                  network_latency=network_latency,
                  peak_compute_efficiency=peak_compute_efficiency,
                  peak_memory_efficiency=peak_memory_efficiency)
        if not self.peak_flops:
            raise ValueError("peak_flops must not be empty")
        for field_name in ("mem_bw", "mem_capacity", "link_bw",
                           "ring_allreduce_bw"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        for field_name in ("peak_compute_efficiency", "peak_memory_efficiency"):
            value = getattr(self, field_name)
            if not 0 < value <= 1:
                raise ValueError(f"{field_name} must be in (0, 1]")

    def flops(self, precision: Precision) -> float:
        """Peak FLOP/s at ``precision``.

        Raises:
            KeyError: if the device does not support the format.
        """
        try:
            return self.peak_flops[precision]
        except KeyError:
            raise KeyError(
                f"{self.name} has no rating for {precision.value}"
            ) from None

    def scaled(
        self,
        compute_scale: float = 1.0,
        network_scale: float = 1.0,
        memory_bw_scale: float = 1.0,
        memory_capacity_scale: float = 1.0,
        name: str = "",
    ) -> "DeviceSpec":
        """Build a synthetic future device (Section 4.3.6).

        Compute FLOPS, network bandwidth, memory bandwidth, and memory
        capacity scale independently -- the hardware-evolution scenarios
        scale compute faster than network (flop-vs-bw > 1).
        """
        if min(compute_scale, network_scale, memory_bw_scale,
               memory_capacity_scale) <= 0:
            raise ValueError("scale factors must be positive")
        return self.replace(
            name=name or f"{self.name}-x{compute_scale:g}c-x{network_scale:g}n",
            peak_flops={
                p: f * compute_scale for p, f in self.peak_flops.items()
            },
            link_bw=self.link_bw * network_scale,
            ring_allreduce_bw=self.ring_allreduce_bw * network_scale,
            mem_bw=self.mem_bw * memory_bw_scale,
            mem_capacity=self.mem_capacity * memory_capacity_scale,
        )


def _spec(name, year, fp32_tf, fp16_tf, mem_bw_gb, mem_gb, link_gb,
          ring_gb, fp8_tf=None) -> DeviceSpec:
    flops = {
        Precision.FP32: fp32_tf * _TERA,
        Precision.TF32: fp32_tf * _TERA,
        Precision.FP16: fp16_tf * _TERA,
        Precision.BF16: fp16_tf * _TERA,
    }
    if fp8_tf is not None:
        flops[Precision.FP8] = fp8_tf * _TERA
    return DeviceSpec(
        name=name,
        year=year,
        peak_flops=flops,
        mem_bw=mem_bw_gb * _GIGA,
        mem_capacity=mem_gb * _GIGA,
        link_bw=link_gb * _GIGA,
        ring_allreduce_bw=ring_gb * _GIGA,
    )


#: Datasheet catalog.  fp32 column uses the matrix/tensor rate where one
#: exists (TF32 for NVIDIA).  Ring all-reduce bandwidths are the achievable
#: bus bandwidths of the parts' standard node topologies.
DEVICE_CATALOG: Dict[str, DeviceSpec] = {
    # The paper's testbed: 4x MI210, 64 GB HBM2e each, Infinity Fabric
    # 100 GB/s bidirectional links forming rings with 150 GB/s peak ring
    # all-reduce bandwidth (Section 4.3.1).
    "MI210": _spec("MI210", 2022, 45.3, 181.0, 1600, 64, 100, 150),
    # AMD generation pair behind the ~7x compute / ~1.7x network ratio.
    "MI50": _spec("MI50", 2018, 13.3, 26.5, 1024, 32, 50, 75),
    "MI100": _spec("MI100", 2020, 46.1, 184.6, 1228, 32, 92, 138),
    # NVIDIA generation pair behind the ~5x compute / ~2x network ratio
    # (V100 FP16 tensor 125 TF, NVLink2 300 GB/s aggregate; A100 FP16
    # tensor 624 TF with structured sparsity as marketed, NVLink3 600 GB/s).
    "V100": _spec("V100", 2018, 15.7, 125.0, 900, 32, 150, 225),
    "A100": _spec("A100", 2020, 19.5, 624.0, 2039, 80, 300, 450),
    # Newer parts usable as "future hardware" data points; they extend
    # the flop-vs-bw trend past the paper's 2018-2020 window.
    "MI250X": _spec("MI250X", 2021, 95.7, 383.0, 3276, 128, 100, 300),
    "MI300X": _spec("MI300X", 2023, 163.4, 1307.0, 5300, 192, 128, 448,
                    fp8_tf=2614.0),
    "H100": _spec("H100", 2022, 66.9, 989.0, 3350, 80, 450, 675,
                  fp8_tf=1979.0),
    "H200": _spec("H200", 2024, 66.9, 989.0, 4800, 141, 450, 675,
                  fp8_tf=1979.0),
}

#: The paper's baseline testbed device.
MI210 = DEVICE_CATALOG["MI210"]


def get_device(name: str) -> DeviceSpec:
    """Look up a catalog device by name.

    Raises:
        KeyError: with the list of known names when ``name`` is unknown.
    """
    try:
        return DEVICE_CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_CATALOG))
        raise KeyError(f"unknown device {name!r}; known: {known}") from None


def flop_vs_bw_ratio(old: DeviceSpec, new: DeviceSpec,
                     precision: Precision = Precision.FP16) -> float:
    """Relative compute-vs-network scaling between two device generations.

    ``(new_flops / old_flops) / (new_link_bw / old_link_bw)`` -- the paper
    derives ~2-4x for the 2018-2020 generation transitions (Section 4.3.6).
    """
    compute_scale = new.flops(precision) / old.flops(precision)
    network_scale = new.link_bw / old.link_bw
    return compute_scale / network_scale
