"""The operator table of a tensor-parallel Transformer layer.

Enumerates every GEMM, fused element-wise kernel, and collective of one
encoder/decoder layer's forward and backward passes with explicit shapes
(Figure 4), under Megatron-style tensor parallelism and optional data
parallelism:

Forward, attention sub-layer:
    LayerNorm -> QKV projection (column parallel) -> attention scores ->
    softmax -> attention context -> output projection (row parallel) ->
    **TP all-reduce of activations** -> residual add.
Forward, FC sub-layer:
    LayerNorm -> FC1 (column parallel) -> GeLU -> FC2 (row parallel) ->
    **TP all-reduce of activations** -> residual add.

The backward pass mirrors each forward GEMM with an input-gradient (IG)
and a weight-gradient (WG) GEMM of equal FLOPs, adds the two conjugate TP
all-reduces of errors, and -- under data parallelism -- emits one
*overlappable* DP all-reduce of each sub-layer's weight gradients as soon
as its WG GEMMs complete (Section 2.3.2).

This module is the single declaration of the layer's operator structure.
Each forward op is one row of :data:`_ATTENTION` or :data:`_FC`, whose
shape fields are computed from a dims object with ``*`` and ``//`` only
(each row divides by TP only in :func:`_per_device`, which checks it), and
each backward rule is written once in :func:`_backward`.  The same
rows evaluate on plain ints (:class:`LayerDims`, for the scalar builders
below and the traces of :mod:`repro.models.trace`) and on the int64
columns of a :class:`repro.core.batch.ConfigGrid` (:func:`layer_records`,
for the batch engine, the prune bounds and the differential checker).

The op labels (:class:`Phase`, :class:`SubLayer`, :class:`CommGroup`,
:class:`CollectiveKind`) are defined here, next to the table that uses
them, and re-exported by :mod:`repro.models.graph`.  The graph op
classes are imported only by the scalar builders that construct them,
and the config classes only for annotations, so evaluating the table on
a grid loads neither module.

The test suite cross-checks these shape-accurate counts against the
paper-equation forms in :mod:`repro.core.flops`, which the table does not
feed.
"""

from __future__ import annotations

import enum
import functools
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Sequence,
    Tuple,
)

from repro.models import sharding

if TYPE_CHECKING:
    from repro.core.hyperparams import ModelConfig, ParallelConfig
    from repro.hardware.specs import Precision
    from repro.models.graph import GemmOp, Op

__all__ = [
    "Phase",
    "SubLayer",
    "CommGroup",
    "CollectiveKind",
    "GEMM",
    "ELEMENTWISE",
    "COMM",
    "LayerDims",
    "OpRecord",
    "layer_records",
    "attention_forward_ops",
    "fc_forward_ops",
    "layer_forward_ops",
    "attention_backward_ops",
    "fc_backward_ops",
    "layer_backward_ops",
    "backward_gemms_for",
    "activation_allreduce_bytes",
    "attention_weight_bytes",
    "fc_weight_bytes",
]


class Phase(enum.Enum):
    """Training phase an operator belongs to."""

    FORWARD = "forward"
    BACKWARD = "backward"


class SubLayer(enum.Enum):
    """Transformer sub-layer an operator belongs to (Section 2.1)."""

    ATTENTION = "attention"
    FC = "fc"
    MOE = "moe"
    OTHER = "other"


class CommGroup(enum.Enum):
    """Process group a collective runs over."""

    TP = "tp"
    DP = "dp"
    EP = "ep"
    PP = "pp"


class CollectiveKind(enum.Enum):
    """Collective operation kinds (Section 2.3)."""

    ALL_REDUCE = "all-reduce"
    REDUCE_SCATTER = "reduce-scatter"
    ALL_GATHER = "all-gather"
    ALL_TO_ALL = "all-to-all"
    P2P = "p2p"


#: Operator families of :attr:`OpRecord.family`.
GEMM = "gemm"
ELEMENTWISE = "elementwise"
COMM = "comm"


class LayerDims(NamedTuple):
    """The shape inputs of one layer, as plain ints.

    :class:`repro.core.batch.ConfigGrid` has the same attribute names as
    int64 columns, so the op table evaluates on either.
    """

    hidden: int
    seq_len: int
    batch: int
    num_heads: int
    ffn_dim: int
    tp: int
    dp: int
    precision: Precision

    @classmethod
    def of(cls, model: ModelConfig, parallel: ParallelConfig) -> "LayerDims":
        return cls(model.hidden, model.seq_len, model.batch, model.num_heads,
                   model.ffn_dim, parallel.tp, parallel.dp, model.precision)


@functools.lru_cache(maxsize=None)
def _graph_classes() -> Tuple[type, type, type, type]:
    """``(GemmShape, GemmOp, ElementwiseOp, CommOp)``, imported on first
    use: only the scalar builders construct graph ops, so evaluating the
    table on a grid never loads :mod:`repro.models.graph`.  Cached
    because the builders call it once per op, and a function-level
    import statement costs microseconds even when the module is loaded.
    """
    from repro.models.graph import CommOp, ElementwiseOp, GemmOp, GemmShape

    return GemmShape, GemmOp, ElementwiseOp, CommOp


class OpRecord(NamedTuple):
    """One operator of the layer with its shape fields evaluated.

    Shape fields are ints on :class:`LayerDims` and int64 arrays (or
    ints, broadcast) on a ``ConfigGrid``.  Only the fields of the op's
    ``family`` are meaningful: ``m``/``n``/``k``/``batch``/``has_weights``
    for :data:`GEMM`, ``elements``/``rw_factor``/``kind`` for
    :data:`ELEMENTWISE`, ``nbytes``/``group``/``overlappable`` for
    :data:`COMM` (always an all-reduce).
    """

    name: str
    family: str
    sublayer: SubLayer
    phase: Phase = Phase.FORWARD
    m: Any = 1
    n: Any = 1
    k: Any = 1
    batch: Any = 1
    has_weights: bool = True
    elements: Any = 0
    rw_factor: float = 3.0
    kind: str = ""
    nbytes: Any = 0
    group: CommGroup = CommGroup.TP
    overlappable: bool = False

    def to_op(self, layer: int = 0) -> Op:
        """The scalar graph op of an int-valued record."""
        GemmShape, GemmOp, ElementwiseOp, CommOp = _graph_classes()
        if self.family == GEMM:
            return GemmOp(
                name=self.name,
                shape=GemmShape(m=self.m, n=self.n, k=self.k,
                                batch=self.batch),
                phase=self.phase,
                sublayer=self.sublayer,
                layer=layer,
                has_weights=self.has_weights,
            )
        if self.family == ELEMENTWISE:
            return ElementwiseOp(
                name=self.name,
                elements=self.elements,
                phase=self.phase,
                sublayer=self.sublayer,
                rw_factor=self.rw_factor,
                kind=self.kind,
                layer=layer,
            )
        return CommOp(
            name=self.name,
            collective=CollectiveKind.ALL_REDUCE,
            nbytes=self.nbytes,
            group=self.group,
            phase=self.phase,
            sublayer=self.sublayer,
            overlappable=self.overlappable,
            layer=layer,
        )


def activation_allreduce_bytes(model: ModelConfig) -> int:
    """Bytes of one TP activation/error all-reduce: ``prec * B * SL * H``.

    Matches Equation 5 (per all-reduce).  Also evaluates on
    :class:`LayerDims` and on ``ConfigGrid`` columns.
    """
    return model.precision.bytes * model.batch * model.seq_len * model.hidden


def _attention_weights(d) -> Any:
    return d.precision.bytes * (4 * d.hidden * d.hidden // d.tp)


def _fc_weights(d) -> Any:
    return d.precision.bytes * (2 * d.hidden * d.ffn_dim // d.tp)


def attention_weight_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Per-device attention weight-gradient bytes (QKV + output proj)."""
    return _attention_weights(LayerDims.of(model, parallel))


def fc_weight_bytes(model: ModelConfig, parallel: ParallelConfig) -> int:
    """Per-device FC weight-gradient bytes (FC1 + FC2) -- Equation 8."""
    return _fc_weights(LayerDims.of(model, parallel))


# -- the op table ---------------------------------------------------------


class _Row(NamedTuple):
    """One forward op: ``shape(d)`` gives its dims-dependent fields."""

    name: str
    family: str
    shape: Callable[[Any], Dict[str, Any]]
    kind: str = ""
    rw_factor: float = 3.0
    has_weights: bool = True


class _SubLayerTable(NamedTuple):
    """A sub-layer's forward rows, in program order, and its per-device
    weight-gradient bytes (the DP all-reduce)."""

    sublayer: SubLayer
    forward: Tuple[_Row, ...]
    weight_bytes: Callable[[Any], Any]


def _tokens(d) -> Any:
    return d.batch * d.seq_len


def _activations(d) -> Any:
    return d.batch * d.seq_len * d.hidden


def _per_device(d, total, what: str) -> Any:
    """``total // TP``: the one place the table's rows divide by TP.

    On :class:`LayerDims` an uneven split raises the ``ValueError`` of
    :func:`repro.models.sharding.shard_dim`; ``ConfigGrid`` validates its
    columns on construction.
    """
    if isinstance(d, LayerDims):
        return sharding.shard_dim(total, d.tp, what)
    return total // d.tp


def _heads(d) -> Any:
    """Attention heads per device: attention is sharded by head, so the
    QKV, score, context and output-projection shards all follow."""
    return _per_device(d, d.num_heads, "num_heads")


def _head_features(d) -> Any:
    """Per-device attention width ``heads / TP * H / heads = H / TP``."""
    return _heads(d) * (d.hidden // d.num_heads)


def _head_batch(d) -> Any:
    """Batch of the per-head attention GEMMs: ``B * heads / TP``."""
    return d.batch * _heads(d)


def _ffn(d) -> Any:
    return _per_device(d, d.ffn_dim, "ffn_dim")


def _tp_all_reduce(name: str) -> _Row:
    """Serialized TP all-reduce of activations; present only for TP > 1."""
    return _Row(name, COMM,
                lambda d: dict(nbytes=activation_allreduce_bytes(d)))


_ATTENTION = _SubLayerTable(
    sublayer=SubLayer.ATTENTION,
    forward=(
        _Row("attn.ln", ELEMENTWISE,
             lambda d: dict(elements=_activations(d)), kind="layernorm"),
        _Row("attn.qkv", GEMM, lambda d: dict(
            m=_tokens(d), n=3 * _head_features(d), k=d.hidden)),
        _Row("attn.scores", GEMM, lambda d: dict(
            m=d.seq_len, n=d.seq_len, k=d.hidden // d.num_heads,
            batch=_head_batch(d)), has_weights=False),
        _Row("attn.softmax", ELEMENTWISE, lambda d: dict(
            elements=_head_batch(d) * d.seq_len * d.seq_len),
            kind="softmax"),
        _Row("attn.context", GEMM, lambda d: dict(
            m=d.seq_len, n=d.hidden // d.num_heads, k=d.seq_len,
            batch=_head_batch(d)), has_weights=False),
        _Row("attn.out_proj", GEMM, lambda d: dict(
            m=_tokens(d), n=d.hidden, k=_head_features(d))),
        _tp_all_reduce("attn.ar_fwd"),
        _Row("attn.residual", ELEMENTWISE,
             lambda d: dict(elements=_activations(d)), kind="residual"),
    ),
    weight_bytes=_attention_weights,
)

_FC = _SubLayerTable(
    sublayer=SubLayer.FC,
    forward=(
        _Row("fc.ln", ELEMENTWISE,
             lambda d: dict(elements=_activations(d)), kind="layernorm"),
        _Row("fc.fc1", GEMM, lambda d: dict(
            m=_tokens(d), n=_ffn(d), k=d.hidden)),
        _Row("fc.gelu", ELEMENTWISE, lambda d: dict(
            elements=_tokens(d) * _ffn(d)), kind="gelu", rw_factor=2.0),
        _Row("fc.fc2", GEMM, lambda d: dict(
            m=_tokens(d), n=d.hidden, k=_ffn(d))),
        _tp_all_reduce("fc.ar_fwd"),
        _Row("fc.residual", ELEMENTWISE,
             lambda d: dict(elements=_activations(d)), kind="residual"),
    ),
    weight_bytes=_fc_weights,
)


def _forward(table: _SubLayerTable, d, tp_parallel: bool) -> List[OpRecord]:
    """A sub-layer's forward records, in program order."""
    return [
        OpRecord(row.name, row.family, table.sublayer, kind=row.kind,
                 rw_factor=row.rw_factor, has_weights=row.has_weights,
                 **row.shape(d))
        for row in table.forward
        if tp_parallel or row.family != COMM
    ]


def _gemm_grads(m, n, k) -> Tuple[Tuple[str, Any, Any, Any], ...]:
    """``(suffix, m, n, k)`` of the two backward GEMMs of a forward GEMM.

    For forward ``C[m,n] = A[m,k] @ W[k,n]``:

    * input gradient  ``dA[m,k] = dC[m,n] @ W.T[n,k]``
    * weight gradient ``dW[k,n] = A.T[k,m] @ dC[m,n]``

    Both cost exactly the forward GEMM's FLOPs, giving the paper's
    backward = 2x forward relationship.
    """
    return (("ig", m, k, n), ("wg", k, n, m))


def _backward(table: _SubLayerTable, forward: Sequence[OpRecord], d,
              dp_parallel: bool) -> List[OpRecord]:
    """A sub-layer's backward records, in execution order.

    Walks the forward records in reverse: GEMMs expand to IG + WG pairs,
    element-wise ops to ``.grad`` ops of equal traffic, and the forward TP
    all-reduce to its conjugate, which reduces errors on the way back
    (the g/f operator pair in Megatron).  Under data parallelism an
    overlappable all-reduce of the weight gradients follows all of the
    sub-layer's WG GEMMs.
    """
    backward = Phase.BACKWARD
    ops: List[OpRecord] = []
    for op in reversed(forward):
        if op.family == GEMM:
            ops.extend(OpRecord(f"{op.name}.{grad}", GEMM, op.sublayer,
                                backward, m, n, k, op.batch, op.has_weights)
                       for grad, m, n, k in _gemm_grads(op.m, op.n, op.k))
        elif op.family == ELEMENTWISE:
            ops.append(OpRecord(f"{op.name}.grad", ELEMENTWISE, op.sublayer,
                                backward, elements=op.elements,
                                rw_factor=op.rw_factor,
                                kind=f"{op.kind}_grad"))
        else:
            ops.append(OpRecord(f"{op.name.split('.')[0]}.ar_bwd", COMM,
                                op.sublayer, backward, nbytes=op.nbytes))
    if dp_parallel:
        ops.append(OpRecord(
            f"{table.sublayer.value}.grad_ar", COMM, table.sublayer,
            Phase.BACKWARD, nbytes=table.weight_bytes(d),
            group=CommGroup.DP, overlappable=True,
        ))
    return ops


def layer_records(d, tp_parallel: bool, dp_parallel: bool
                  ) -> List[OpRecord]:
    """One layer's forward + backward records, in trace order.

    ``d`` is a :class:`LayerDims` or a ``ConfigGrid`` whose rows all
    share the ``(TP > 1, DP > 1)`` parity given by the flags (the batch
    engine and the prune bounds pass ``True, True`` for every row: a
    collective over one device times as 0).  TP divisibility is checked
    on ``LayerDims`` only; ``ConfigGrid`` validates its columns on
    construction.
    """
    attention = _forward(_ATTENTION, d, tp_parallel)
    fc = _forward(_FC, d, tp_parallel)
    return (attention + fc + _backward(_FC, fc, d, dp_parallel)
            + _backward(_ATTENTION, attention, d, dp_parallel))


# -- scalar builders --------------------------------------------------------


def _sublayer_ops(table: _SubLayerTable, model: ModelConfig,
                  parallel: ParallelConfig, layer: int,
                  backward: bool) -> List[Op]:
    d = LayerDims.of(model, parallel)
    records = _forward(table, d, d.tp > 1)
    if backward:
        records = _backward(table, records, d, d.dp > 1)
    return [record.to_op(layer) for record in records]


def attention_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                          layer: int = 0) -> List[Op]:
    """Forward operators of the attention sub-layer, in program order."""
    return _sublayer_ops(_ATTENTION, model, parallel, layer, False)


def fc_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                   layer: int = 0) -> List[Op]:
    """Forward operators of the FC (feed-forward) sub-layer."""
    return _sublayer_ops(_FC, model, parallel, layer, False)


def layer_forward_ops(model: ModelConfig, parallel: ParallelConfig,
                      layer: int = 0) -> List[Op]:
    """All forward operators of one Transformer layer."""
    return (attention_forward_ops(model, parallel, layer)
            + fc_forward_ops(model, parallel, layer))


def attention_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                           layer: int = 0) -> List[Op]:
    """Backward operators of the attention sub-layer."""
    return _sublayer_ops(_ATTENTION, model, parallel, layer, True)


def fc_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                    layer: int = 0) -> List[Op]:
    """Backward operators of the FC sub-layer."""
    return _sublayer_ops(_FC, model, parallel, layer, True)


def layer_backward_ops(model: ModelConfig, parallel: ParallelConfig,
                       layer: int = 0) -> List[Op]:
    """All backward operators of one layer (FC first: reverse of forward)."""
    return (fc_backward_ops(model, parallel, layer)
            + attention_backward_ops(model, parallel, layer))


def backward_gemms_for(op: GemmOp) -> List[GemmOp]:
    """The input- and weight-gradient GEMMs spawned by a forward GEMM.

    Both cost exactly the forward GEMM's FLOPs; the shapes come from the
    same transposition rule as the op table's backward pass.
    """
    GemmShape, GemmOp, _, _ = _graph_classes()
    s = op.shape
    return [
        GemmOp(
            name=f"{op.name}.{grad}",
            shape=GemmShape(m=m, n=n, k=k, batch=s.batch),
            phase=Phase.BACKWARD,
            sublayer=op.sublayer,
            layer=op.layer,
            has_weights=op.has_weights,
        )
        for grad, m, n, k in _gemm_grads(s.m, s.n, s.k)
    ]
