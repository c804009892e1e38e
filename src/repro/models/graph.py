"""Operator-graph datatypes for Transformer training iterations.

A training iteration is represented as an ordered trace of operators --
GEMMs, fused element-wise kernels, and communication collectives -- the
same granularity the paper profiles with rocProf and models with its
operator-level runtime models (Section 4.2.2).

Ordering semantics (consumed by :mod:`repro.sim.executor`):

* compute ops execute in trace order on the device's compute stream;
* a *serialized* communication op (``overlappable=False``, e.g. a TP
  activation all-reduce) blocks the compute stream until it completes;
* an *overlappable* communication op (e.g. a DP weight-gradient
  all-reduce) is issued to the communication stream once the preceding
  compute op finishes, and runs concurrently with later compute.

The op labels :class:`Phase`, :class:`SubLayer`, :class:`CommGroup` and
:class:`CollectiveKind` are defined in :mod:`repro.models.layers`, the
operator table that uses them, and re-exported here: the batch engine
reads the table without ever building a graph op, so it does not load
this module.  :class:`GemmShape`, the shape of a :class:`GemmOp`, lives
here for the same reason; :mod:`repro.hardware.gemm` still resolves
``GemmShape`` on first access.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro._frozen import Frozen
from repro.core.hyperparams import ModelConfig, ParallelConfig
from repro.models.layers import CollectiveKind, CommGroup, Phase, SubLayer

if TYPE_CHECKING:
    from repro.hardware.specs import Precision

__all__ = [
    "Phase",
    "SubLayer",
    "CommGroup",
    "CollectiveKind",
    "GemmShape",
    "GemmOp",
    "ElementwiseOp",
    "CommOp",
    "Op",
    "Trace",
]

#: The simulator builds thousands of these records per trace, so they
#: assign their slots directly instead of through ``Frozen._set``.
_assign = object.__setattr__


class GemmShape(Frozen):
    """A (possibly batched) GEMM: ``batch`` x [M, K] @ [K, N].

    ``flops`` follows the paper's ``2 * M * N * K`` multiply-add convention.
    """

    __slots__ = ("m", "n", "k", "batch")

    m: int
    n: int
    k: int
    batch: int

    def __init__(self, m: int, n: int, k: int, batch: int = 1) -> None:
        if m <= 0 or n <= 0 or k <= 0 or batch <= 0:
            name = next(name for name, dim in (("m", m), ("n", n), ("k", k),
                                               ("batch", batch))
                        if dim <= 0)
            raise ValueError(f"GEMM dim {name} must be positive")
        _assign(self, "m", m)
        _assign(self, "n", n)
        _assign(self, "k", k)
        _assign(self, "batch", batch)

    @property
    def flops(self) -> int:
        return 2 * self.batch * self.m * self.n * self.k

    def bytes_moved(self, precision: Precision) -> int:
        """Off-chip traffic lower bound: read A and B, write C once."""
        per_instance = self.m * self.k + self.k * self.n + self.m * self.n
        return precision.bytes * self.batch * per_instance


class GemmOp(Frozen):
    """A (batched) matrix multiplication on the compute stream.

    ``has_weights`` distinguishes weight-bearing projections (QKV, output
    projection, FC1/FC2) from the activation-activation attention GEMMs
    (scores, context), which carry no parameters and therefore produce no
    weight gradients -- the distinction the slack-advantage ROI relies on
    (Section 3.4 considers WG/IG GEMMs of weight sub-layers).
    """

    __slots__ = ("name", "shape", "phase", "sublayer", "layer", "has_weights")

    name: str
    shape: GemmShape
    phase: Phase
    sublayer: SubLayer
    layer: int
    has_weights: bool

    def __init__(self, name: str, shape: GemmShape, phase: Phase,
                 sublayer: SubLayer, layer: int = 0,
                 has_weights: bool = True) -> None:
        _assign(self, "name", name)
        _assign(self, "shape", shape)
        _assign(self, "phase", phase)
        _assign(self, "sublayer", sublayer)
        _assign(self, "layer", layer)
        _assign(self, "has_weights", has_weights)

    @property
    def flops(self) -> int:
        return self.shape.flops

    @property
    def is_compute(self) -> bool:
        return True


class ElementwiseOp(Frozen):
    """A fused element-wise / reduction kernel (LayerNorm, softmax, ...)."""

    __slots__ = ("name", "elements", "phase", "sublayer", "rw_factor", "kind",
                 "layer")

    name: str
    elements: int
    phase: Phase
    sublayer: SubLayer
    rw_factor: float
    kind: str
    layer: int

    def __init__(self, name: str, elements: int, phase: Phase,
                 sublayer: SubLayer, rw_factor: float = 3.0,
                 kind: str = "elementwise", layer: int = 0) -> None:
        if elements <= 0:
            raise ValueError("elements must be positive")
        _assign(self, "name", name)
        _assign(self, "elements", elements)
        _assign(self, "phase", phase)
        _assign(self, "sublayer", sublayer)
        _assign(self, "rw_factor", rw_factor)
        _assign(self, "kind", kind)
        _assign(self, "layer", layer)

    @property
    def is_compute(self) -> bool:
        return True


class CommOp(Frozen):
    """A communication collective.

    Attributes:
        nbytes: Per-device buffer size in bytes.
        group: Process group (determines group size via ParallelConfig).
        overlappable: False for critical-path (serialized) communication,
            True for communication that may overlap independent compute.
    """

    __slots__ = ("name", "collective", "nbytes", "group", "phase", "sublayer",
                 "overlappable", "layer")

    name: str
    collective: CollectiveKind
    nbytes: int
    group: CommGroup
    phase: Phase
    sublayer: SubLayer
    overlappable: bool
    layer: int

    def __init__(self, name: str, collective: CollectiveKind, nbytes: int,
                 group: CommGroup, phase: Phase, sublayer: SubLayer,
                 overlappable: bool, layer: int = 0) -> None:
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        _assign(self, "name", name)
        _assign(self, "collective", collective)
        _assign(self, "nbytes", nbytes)
        _assign(self, "group", group)
        _assign(self, "phase", phase)
        _assign(self, "sublayer", sublayer)
        _assign(self, "overlappable", overlappable)
        _assign(self, "layer", layer)

    @property
    def is_compute(self) -> bool:
        return False


Op = Union[GemmOp, ElementwiseOp, CommOp]


class Trace(Frozen):
    """An ordered operator trace for one training iteration.

    Attributes:
        model: Model the trace was generated from.
        parallel: Distributed setup the trace was generated for.
        ops: Operators in program order (see module docstring for the
            stream semantics).
    """

    __slots__ = ("model", "parallel", "ops")

    model: ModelConfig
    parallel: ParallelConfig
    ops: Tuple[Op, ...]

    def __init__(self, model: ModelConfig, parallel: ParallelConfig,
                 ops: Sequence[Op]) -> None:
        self._set(model=model, parallel=parallel, ops=tuple(ops))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def gemms(self) -> List[GemmOp]:
        return [op for op in self.ops if isinstance(op, GemmOp)]

    def elementwise(self) -> List[ElementwiseOp]:
        return [op for op in self.ops if isinstance(op, ElementwiseOp)]

    def comms(self) -> List[CommOp]:
        return [op for op in self.ops if isinstance(op, CommOp)]

    def overlappable_comms(self) -> List[CommOp]:
        """Collectives that may hide under compute (DP gradient ARs)."""
        return [op for op in self.comms() if op.overlappable]

    def total_gemm_flops(self) -> int:
        return sum(op.flops for op in self.gemms())

    def total_comm_bytes(self, overlappable: Optional[bool] = None) -> int:
        """Total collective bytes; filter by overlappability if given."""
        ops = self.comms()
        if overlappable is not None:
            ops = [op for op in ops if op.overlappable == overlappable]
        return sum(op.nbytes for op in ops)

    def group_size(self, group: CommGroup) -> int:
        """Device count of a process group under this trace's setup."""
        return {
            CommGroup.TP: self.parallel.tp,
            CommGroup.DP: self.parallel.dp,
            CommGroup.EP: self.parallel.ep,
            CommGroup.PP: self.parallel.pp,
        }[group]
