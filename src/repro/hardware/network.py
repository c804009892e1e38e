"""Interconnect links and bandwidth-saturation behaviour.

Collective performance depends on how well a message utilizes the links:
the paper observes (Section 4.3.5) that small communication sizes "do not
fully use the network bandwidth capacity", producing sub-linear cost growth
until the links saturate -- an effect that *increases* the relative cost of
communication for small-H models.  :func:`effective_bandwidth` captures it
with a saturating utilization curve.
"""

from __future__ import annotations

from repro._frozen import Frozen

__all__ = ["Link", "effective_bandwidth"]


class Link(Frozen):
    """A point-to-point or ring-aggregate interconnect link.

    Attributes:
        bandwidth: Peak achievable bandwidth, bytes/s.
        latency: Per-message (per-hop) latency, seconds.
        saturation_half_bytes: Message size at which achieved bandwidth
            reaches half of peak.
    """

    __slots__ = ("bandwidth", "latency", "saturation_half_bytes")

    bandwidth: float
    latency: float
    saturation_half_bytes: float

    def __init__(self, bandwidth: float, latency: float = 1e-6,
                 saturation_half_bytes: float = 1e6) -> None:
        self._set(bandwidth=bandwidth, latency=latency,
                  saturation_half_bytes=saturation_half_bytes)
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.saturation_half_bytes <= 0:
            raise ValueError("saturation_half_bytes must be positive")

    def scaled(self, factor: float) -> "Link":
        """Link with bandwidth scaled by ``factor`` (hardware evolution)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Link(
            bandwidth=self.bandwidth * factor,
            latency=self.latency,
            saturation_half_bytes=self.saturation_half_bytes,
        )


def effective_bandwidth(link: Link, nbytes: float) -> float:
    """Achieved bandwidth for a message of ``nbytes`` on ``link``.

    Utilization follows ``nbytes / (nbytes + half)``: ~0 for tiny messages,
    asymptotically the peak for large ones.

    Raises:
        ValueError: if ``nbytes`` is not positive.
    """
    if nbytes <= 0:
        raise ValueError("message size must be positive")
    utilization = nbytes / (nbytes + link.saturation_half_bytes)
    return link.bandwidth * utilization
