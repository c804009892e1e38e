"""Host (CPU) memory links for offload techniques (Section 6.1.3).

ZeRO-Offload/-Infinity-style techniques stage optimizer state (and more)
in CPU-attached DDR or NVMe, trading accelerator memory for traffic over
the host link.  The paper notes the software challenge: staged data must
return "just-in-time", or the host transfers land on the critical path.

A :class:`HostLink` is a simple bandwidth/latency channel with the same
saturation behaviour as device interconnects.
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.hardware.network import Link, effective_bandwidth

__all__ = ["HostLink", "PCIE_GEN4_X16", "PCIE_GEN5_X16", "transfer_time"]


class HostLink(Frozen):
    """A device <-> host-memory channel.

    Attributes:
        name: Channel label.
        d2h: Device-to-host link (gradient offload direction).
        h2d: Host-to-device link (parameter prefetch direction).
    """

    __slots__ = ("name", "d2h", "h2d")

    name: str
    d2h: Link
    h2d: Link

    def __init__(self, name: str, d2h: Link, h2d: Link) -> None:
        self._set(name=name, d2h=d2h, h2d=h2d)


def _pcie(gb_per_s: float) -> Link:
    return Link(bandwidth=gb_per_s * 1e9, latency=5e-6,
                saturation_half_bytes=1e6)


#: PCIe 4.0 x16: ~32 GB/s per direction (the MI210's host interface).
PCIE_GEN4_X16 = HostLink(name="PCIe4x16", d2h=_pcie(32.0), h2d=_pcie(32.0))

#: PCIe 5.0 x16: ~64 GB/s per direction.
PCIE_GEN5_X16 = HostLink(name="PCIe5x16", d2h=_pcie(64.0), h2d=_pcie(64.0))


def transfer_time(link: Link, nbytes: float) -> float:
    """Time to move ``nbytes`` over a host channel.

    Raises:
        ValueError: for non-positive sizes.
    """
    if nbytes <= 0:
        raise ValueError("transfer size must be positive")
    return link.latency + nbytes / effective_bandwidth(link, nbytes)
