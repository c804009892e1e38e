"""GEMM execution-time model (the compute half of the simulated testbed).

The paper's empirical strategy profiles GEMMs on real MI210 GPUs.  We
substitute a calibrated analytical model that reproduces the properties the
paper's analysis depends on:

* large compute-bound GEMMs run near peak FLOPS (GShard reports > 85%
  utilization; Section 4.2.3),
* small/skinny GEMMs lose efficiency to tile and wave quantization and to
  short accumulation (K) dimensions,
* runtime does not scale perfectly linearly/quadratically with
  hyperparameters, because "complex operations such as GEMMs use different
  kernel implementations tuned per size" (Section 4.3.8).  We model that
  with a deterministic, shape-keyed kernel-selection jitter -- this is what
  gives the operator-level projection its realistic ~15% error (Figure 15).

Timing is a roofline: ``max(flops / achieved_flops, bytes / achieved_bw)``
plus a fixed launch overhead.
"""

from __future__ import annotations

import math
import zlib
from typing import TYPE_CHECKING, Tuple

from repro._frozen import Frozen
from repro.hardware.specs import DeviceSpec, Precision

if TYPE_CHECKING:
    from repro.models.graph import GemmShape

__all__ = ["GemmTimingModel", "DEFAULT_GEMM_MODEL"]


def __getattr__(name: str) -> object:
    # GemmShape is a scalar-op type defined beside the graph ops; the
    # batch engine times GEMMs from arrays and never loads it.
    if name == "GemmShape":
        from repro.models.graph import GemmShape

        return GemmShape
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Key-part types whose ``repr`` is stable.  A NumPy scalar is excluded:
#: under NumPy 2 ``repr(np.int64(5))`` is ``'np.int64(5)'``, which would
#: silently shift every jittered value it reaches.
_KEY_TYPES = (int, str, float)


def stable_unit_hash(*key: object) -> float:
    """Deterministic pseudo-uniform value in [0, 1) from a key tuple.

    Uses CRC32 of the key's repr so results are stable across processes and
    Python versions (the built-in ``hash`` is salted per process).

    Raises:
        TypeError: if a key part's type is not exactly ``int``, ``str``
            or ``float`` (subclasses such as ``bool`` and NumPy scalars
            included).
    """
    for part in key:
        if type(part) not in _KEY_TYPES:
            raise TypeError(
                f"jitter key part {part!r} has type {type(part).__name__}; "
                f"expected a built-in int, str or float"
            )
    digest = zlib.crc32(repr(key).encode("utf-8"))
    return (digest & 0xFFFFFFFF) / 2**32


class GemmTimingModel(Frozen):
    """Parameters of the analytical GEMM timing model.

    Attributes:
        tile: Output-tile edge length of the modeled GEMM kernels.
        compute_units: CU count used for wave quantization (MI210 has 104).
        k_half: K extent at which the accumulation pipeline reaches half of
            its asymptotic efficiency.
        m_half: M extent (rows, i.e. tokens) at which per-row pipeline
            efficiency reaches half of its asymptote -- GEMMs over few
            tokens (small ``B * SL``) underutilize the device even when
            tile counts line up.
        jitter_amplitude: Half-width of the multiplicative, shape-keyed
            kernel-selection jitter.  0 disables jitter (useful for tests
            that need exact scaling laws).
    """

    __slots__ = ("tile", "compute_units", "k_half", "m_half",
                 "jitter_amplitude", "SPLIT_K_MIN", "SPLIT_K_EFFICIENCY",
                 "TILE_CANDIDATES", "TILE_REUSE_EXP")

    tile: int
    compute_units: int
    k_half: int
    m_half: int
    jitter_amplitude: float

    #: Minimum K extent per split-K slice; below this splitting stops paying.
    SPLIT_K_MIN: int
    #: Efficiency retained by a split-K kernel (partial-sum reduction cost).
    SPLIT_K_EFFICIENCY: float
    #: Candidate output-tile edge lengths the autotuner chooses among.
    TILE_CANDIDATES: Tuple[int, ...]
    #: Per-CU throughput loss exponent of smaller tiles (reduced reuse):
    #: a ``t``-wide tile retains ``(t / tile)**TILE_REUSE_EXP`` efficiency.
    TILE_REUSE_EXP: float

    def __init__(self, tile: int = 128, compute_units: int = 104,
                 k_half: int = 32, m_half: int = 64,
                 jitter_amplitude: float = 0.08, SPLIT_K_MIN: int = 512,
                 SPLIT_K_EFFICIENCY: float = 0.9,
                 TILE_CANDIDATES: Tuple[int, ...] = (128, 64, 32),
                 TILE_REUSE_EXP: float = 0.3) -> None:
        self._set(tile=tile, compute_units=compute_units, k_half=k_half,
                  m_half=m_half, jitter_amplitude=jitter_amplitude,
                  SPLIT_K_MIN=SPLIT_K_MIN,
                  SPLIT_K_EFFICIENCY=SPLIT_K_EFFICIENCY,
                  TILE_CANDIDATES=TILE_CANDIDATES,
                  TILE_REUSE_EXP=TILE_REUSE_EXP)

    @staticmethod
    def _pow2_at_most(value: int, cap: int) -> int:
        """Largest power of two <= min(value rounded up to pow2, cap)."""
        if value >= cap:
            return cap
        power = 1
        while power < value:
            power *= 2
        return power

    def _efficiency_for_tile(self, shape: GemmShape, device: DeviceSpec,
                             tile: int) -> float:
        # Rectangular tiles: skinny GEMMs (GEMV-like decode projections,
        # thin weight-gradient slices) get a row-tile matched to their
        # row count instead of wasting a square tile's rows.
        tile_m = self._pow2_at_most(shape.m, tile)
        tile_n = self._pow2_at_most(shape.n, tile)
        tiles_m = math.ceil(shape.m / tile_m)
        tiles_n = math.ceil(shape.n / tile_n)
        tile_eff = (shape.m * shape.n) / (tiles_m * tiles_n * tile_m
                                          * tile_n)
        reuse_eff = ((tile_m * tile_n) / self.tile**2) ** (
            self.TILE_REUSE_EXP / 2
        )
        total_tiles = shape.batch * tiles_m * tiles_n
        split_penalty = 1.0
        if total_tiles < self.compute_units and shape.k > self.SPLIT_K_MIN:
            split = max(1, min(self.compute_units // total_tiles,
                               shape.k // self.SPLIT_K_MIN))
            if split > 1:
                total_tiles *= split
                split_penalty = self.SPLIT_K_EFFICIENCY
        waves = math.ceil(total_tiles / self.compute_units)
        wave_eff = total_tiles / (waves * self.compute_units)
        k_eff = shape.k / (shape.k + self.k_half)
        m_eff = shape.m / (shape.m + self.m_half)
        return (device.peak_compute_efficiency * tile_eff * reuse_eff
                * wave_eff * k_eff * m_eff * split_penalty)

    def compute_efficiency(self, shape: GemmShape, device: DeviceSpec) -> float:
        """Achieved fraction of peak FLOPS for ``shape`` on ``device``.

        Combines tile quantization (partial edge tiles), wave quantization
        (tiles vs compute units), accumulation-depth (K) and row-count (M)
        ramps.  Two library behaviours soften the quantization cliffs the
        way tuned BLAS libraries do: GEMMs with few output tiles but a
        deep K dimension are executed as split-K kernels, and the tile
        size is autotuned per shape (smaller tiles trade per-CU reuse for
        occupancy).
        """
        return max(
            self._efficiency_for_tile(shape, device, tile)
            for tile in self.TILE_CANDIDATES
        )

    def jitter(self, shape: GemmShape, precision: Precision) -> float:
        """Deterministic per-shape kernel-selection multiplier."""
        if self.jitter_amplitude == 0:
            return 1.0
        u = stable_unit_hash("gemm", shape.m, shape.n, shape.k, shape.batch,
                             precision.value)
        return 1.0 + self.jitter_amplitude * (2.0 * u - 1.0)

    def time(self, shape: GemmShape, device: DeviceSpec,
             precision: Precision) -> float:
        """Execution time in seconds of ``shape`` on ``device``."""
        eff = self.compute_efficiency(shape, device)
        t_compute = shape.flops / (device.flops(precision) * eff)
        t_memory = shape.bytes_moved(precision) / (
            device.mem_bw * device.peak_memory_efficiency
        )
        base = max(t_compute, t_memory) + device.compute_launch_overhead
        return base * self.jitter(shape, precision)

    def without_jitter(self) -> "GemmTimingModel":
        """Copy of this model with kernel-selection jitter disabled."""
        return GemmTimingModel(
            tile=self.tile,
            compute_units=self.compute_units,
            k_half=self.k_half,
            m_half=self.m_half,
            jitter_amplitude=0.0,
        )


#: Model calibrated to the paper's MI210 testbed behaviour.
DEFAULT_GEMM_MODEL = GemmTimingModel()
