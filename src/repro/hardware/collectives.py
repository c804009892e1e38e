"""Communication-collective timing models (Section 2.3.1).

Implements the collectives distributed Transformer training relies on:
all-reduce (ring and in-network/PIN variants), reduce-scatter, all-gather,
all-to-all (MoE expert parallelism), and point-to-point sends (pipeline
parallelism).

Timing follows the standard alpha-beta formulation on top of the
saturating-bandwidth links of :mod:`repro.hardware.network`: a ring
all-reduce over ``N`` devices moves ``2 * (N - 1) / N`` times the data per
device and pays ``2 * (N - 1)`` latency steps.  A deterministic size-keyed
jitter reproduces the measured all-reduce variation the paper reports
(~11% geomean projection error, Figure 15(c)).
"""

from __future__ import annotations

import enum
import math

from repro._frozen import Frozen
from repro.hardware.gemm import stable_unit_hash
from repro.hardware.network import Link, effective_bandwidth

__all__ = [
    "AllReduceAlgorithm",
    "CollectiveTimingModel",
    "DEFAULT_COLLECTIVE_MODEL",
    "all_reduce_time",
    "reduce_scatter_time",
    "all_gather_time",
    "all_to_all_time",
    "p2p_time",
]


class AllReduceAlgorithm(enum.Enum):
    """All-reduce implementation flavors (Sections 2.3.1 and 5).

    RING is the bandwidth-optimal software ring (RCCL/NCCL default on the
    paper's testbed).  TREE is the latency-optimal double binary tree NCCL
    uses for small messages and large groups (log-depth latency, ~the same
    asymptotic bandwidth).  AUTO picks whichever of ring/tree is faster
    for the given size and group, like the libraries' internal tuning.
    IN_NETWORK models processing-in-network switches (SHArP-style,
    "Technique 2"): devices push data once to the switch, halving
    per-device traffic -- an effective 2x bandwidth gain.
    """

    RING = "ring"
    TREE = "tree"
    AUTO = "auto"
    IN_NETWORK = "in-network"


#: Bandwidth efficiency loss of tree vs ring pipelining.
_TREE_BANDWIDTH_PENALTY = 1.15


def _validate(nbytes: float, n_devices: int) -> None:
    if nbytes <= 0:
        raise ValueError("collective size must be positive")
    if n_devices < 1:
        raise ValueError("device count must be >= 1")


class CollectiveTimingModel(Frozen):
    """Parameters shared by all collective timing functions.

    Attributes:
        jitter_amplitude: Half-width of the size-keyed runtime jitter.
        straggler_half: Ring-size at which synchronization/straggler
            overhead doubles a ring collective's time.  Large rings pay a
            growing coordination cost (``1 + N / straggler_half``) on top
            of the alpha-beta terms; this is what makes very large TP
            groups disproportionally expensive (Section 4.3.2 notes that
            realizing TP of 250-550 needs "considerable innovations in
            interconnect technology").
    """

    __slots__ = ("jitter_amplitude", "straggler_half")

    jitter_amplitude: float
    straggler_half: float

    def __init__(self, jitter_amplitude: float = 0.10,
                 straggler_half: float = 340.0) -> None:
        self._set(jitter_amplitude=jitter_amplitude,
                  straggler_half=straggler_half)
        if self.straggler_half <= 0:
            raise ValueError("straggler_half must be positive")

    def ring_overhead(self, n_devices: int) -> float:
        """Synchronization overhead multiplier for an N-device ring."""
        return 1.0 + n_devices / self.straggler_half

    def jitter(self, op: str, nbytes: float, n_devices: int) -> float:
        if self.jitter_amplitude == 0:
            return 1.0
        u = stable_unit_hash("collective", op, int(nbytes), n_devices)
        return 1.0 + self.jitter_amplitude * (2.0 * u - 1.0)

    def without_jitter(self) -> "CollectiveTimingModel":
        return CollectiveTimingModel(jitter_amplitude=0.0,
                                     straggler_half=self.straggler_half)


#: Model calibrated to the paper's RCCL-on-Infinity-Fabric behaviour.
DEFAULT_COLLECTIVE_MODEL = CollectiveTimingModel()


def all_reduce_time(
    nbytes: float,
    n_devices: int,
    link: Link,
    algorithm: AllReduceAlgorithm = AllReduceAlgorithm.RING,
    model: CollectiveTimingModel = DEFAULT_COLLECTIVE_MODEL,
) -> float:
    """Time to all-reduce ``nbytes`` (per-device buffer size) over a group.

    With one device the collective is a no-op.  Ring: ``2(N-1)`` latency
    hops plus ``2(N-1)/N`` of the buffer over the link.  In-network: one
    round trip of the buffer through the reducing switch.
    """
    _validate(nbytes, n_devices)
    if n_devices == 1:
        return 0.0
    bw = effective_bandwidth(link, nbytes)
    if algorithm is AllReduceAlgorithm.AUTO:
        # Library-style tuning: pick the faster of ring and tree for this
        # (size, group) point, compared without jitter so the choice is a
        # clean crossover, then apply this call's jitter.
        exact = model.without_jitter()
        ring = all_reduce_time(nbytes, n_devices, link,
                               AllReduceAlgorithm.RING, exact)
        tree = all_reduce_time(nbytes, n_devices, link,
                               AllReduceAlgorithm.TREE, exact)
        best = min(ring, tree)
        return best * model.jitter("allreduce-auto", nbytes, n_devices)
    if algorithm is AllReduceAlgorithm.RING:
        steps = 2 * (n_devices - 1)
        transfer = (2.0 * (n_devices - 1) / n_devices * nbytes / bw
                    * model.ring_overhead(n_devices))
    elif algorithm is AllReduceAlgorithm.TREE:
        # Double binary tree: reduce up + broadcast down, log2(N) hops
        # each way; every rank sends/receives ~2x the buffer in total but
        # pipelining keeps the bandwidth term near the ring's, at a small
        # constant penalty and no straggler chain.
        depth = math.ceil(math.log2(n_devices))
        steps = 2 * depth
        transfer = 2.0 * nbytes / bw * _TREE_BANDWIDTH_PENALTY
    else:
        # In-network reduction is switch-based: no ring, no straggler term.
        steps = 2
        transfer = nbytes / bw
    base = steps * link.latency + transfer
    return base * model.jitter(f"allreduce-{algorithm.value}", nbytes,
                               n_devices)


def reduce_scatter_time(
    nbytes: float,
    n_devices: int,
    link: Link,
    model: CollectiveTimingModel = DEFAULT_COLLECTIVE_MODEL,
) -> float:
    """Ring reduce-scatter of a ``nbytes`` buffer (each device keeps 1/N)."""
    _validate(nbytes, n_devices)
    if n_devices == 1:
        return 0.0
    bw = effective_bandwidth(link, nbytes)
    base = (n_devices - 1) * link.latency + (
        (n_devices - 1) / n_devices * nbytes / bw
        * model.ring_overhead(n_devices)
    )
    return base * model.jitter("reduce-scatter", nbytes, n_devices)


def all_gather_time(
    nbytes: float,
    n_devices: int,
    link: Link,
    model: CollectiveTimingModel = DEFAULT_COLLECTIVE_MODEL,
) -> float:
    """Ring all-gather producing a ``nbytes`` buffer on every device."""
    _validate(nbytes, n_devices)
    if n_devices == 1:
        return 0.0
    bw = effective_bandwidth(link, nbytes)
    base = (n_devices - 1) * link.latency + (
        (n_devices - 1) / n_devices * nbytes / bw
        * model.ring_overhead(n_devices)
    )
    return base * model.jitter("all-gather", nbytes, n_devices)


def all_to_all_time(
    nbytes: float,
    n_devices: int,
    link: Link,
    model: CollectiveTimingModel = DEFAULT_COLLECTIVE_MODEL,
) -> float:
    """All-to-all exchange of a ``nbytes`` per-device buffer (MoE routing).

    Each device sends ``(N-1)/N`` of its buffer (one shard per peer).
    """
    _validate(nbytes, n_devices)
    if n_devices == 1:
        return 0.0
    bw = effective_bandwidth(link, nbytes)
    base = (n_devices - 1) * link.latency + (
        (n_devices - 1) / n_devices * nbytes / bw
    )
    return base * model.jitter("all-to-all", nbytes, n_devices)


def p2p_time(
    nbytes: float,
    link: Link,
    model: CollectiveTimingModel = DEFAULT_COLLECTIVE_MODEL,
) -> float:
    """Point-to-point transfer (pipeline-parallel activation sends)."""
    if nbytes <= 0:
        raise ValueError("transfer size must be positive")
    bw = effective_bandwidth(link, nbytes)
    base = link.latency + nbytes / bw
    return base * model.jitter("p2p", nbytes, 2)
