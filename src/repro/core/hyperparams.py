"""Model and parallelism hyperparameters.

The paper (Section 3.2, Table 1) identifies four hyperparameters that
dictate the size -- and therefore the cost -- of every compute and
communication operation in a Transformer layer:

* ``H``  -- hidden dimension (layer width),
* ``B``  -- input batch size,
* ``SL`` -- input sequence length,
* ``TP`` -- tensor-parallel degree (number of devices a layer is split over).

This module defines the validated configuration objects used by every other
part of the library: :class:`ModelConfig` for the model architecture and
:class:`ParallelConfig` for the distributed setup.  :class:`Precision`, the
number format (Section 6.2), is re-exported from
:mod:`repro.hardware.specs`, where the device FLOP ratings it keys live.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro._frozen import Frozen
from repro.hardware.specs import Precision


class LayerType(enum.Enum):
    """Transformer layer flavor (Section 2.1).

    Encoders and decoders share the same training-time operator structure
    (the decoder's attention mask changes inference behaviour but not
    training cost), so the distinction is descriptive.
    """

    ENCODER = "encoder"
    DECODER = "decoder"
    ENCODER_DECODER = "encoder-decoder"


def _require_positive(name: str, value: int) -> None:
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


class ModelConfig(Frozen):
    """Architecture + input hyperparameters of a Transformer model.

    Parameters mirror Table 1/Table 2 of the paper.  ``ffn_dim`` defaults to
    the conventional ``4 * hidden`` used by the paper's equations
    (Equation 1 assumes an FC expansion of 4x).

    Attributes:
        name: Human-readable identifier (e.g. ``"BERT"``).
        hidden: Hidden dimension ``H``.
        seq_len: Sequence length ``SL``.
        batch: Per-replica batch size ``B``.
        num_layers: Encoder/decoder layer count (does not change per-layer
            operation sizes; scales totals linearly).
        num_heads: Attention head count.  Must divide ``hidden``.
        ffn_dim: FC (feed-forward) intermediate dimension; default ``4*H``.
        layer_type: Encoder / decoder / both.
        precision: Number format for activations and gradients.
        year: Publication year, used by scaling-trend analyses.
    """

    __slots__ = ("name", "hidden", "seq_len", "batch", "num_layers",
                 "num_heads", "ffn_dim", "layer_type", "precision", "year",
                 "_hash")

    name: str
    hidden: int
    seq_len: int
    batch: int
    num_layers: int
    num_heads: int
    ffn_dim: int
    layer_type: LayerType
    precision: Precision
    year: Optional[int]

    def __init__(self, name: str, hidden: int, seq_len: int, batch: int = 1,
                 num_layers: int = 1, num_heads: int = 16,
                 ffn_dim: Optional[int] = None,
                 layer_type: LayerType = LayerType.DECODER,
                 precision: Precision = Precision.FP16,
                 year: Optional[int] = None) -> None:
        _require_positive("hidden", hidden)
        _require_positive("seq_len", seq_len)
        _require_positive("batch", batch)
        _require_positive("num_layers", num_layers)
        _require_positive("num_heads", num_heads)
        if ffn_dim is None:
            ffn_dim = 4 * hidden
        _require_positive("ffn_dim", ffn_dim)
        if hidden % num_heads != 0:
            raise ValueError(
                f"hidden ({hidden}) must be divisible by "
                f"num_heads ({num_heads})"
            )
        self._set(name=name, hidden=hidden, seq_len=seq_len, batch=batch,
                  num_layers=num_layers, num_heads=num_heads, ffn_dim=ffn_dim,
                  layer_type=layer_type, precision=precision, year=year)

    @property
    def head_dim(self) -> int:
        """Per-head dimension ``H / num_heads``."""
        return self.hidden // self.num_heads

    @property
    def slb(self) -> int:
        """The ``SL * B`` product: compute's slack factor (Equation 9)."""
        return self.seq_len * self.batch

    def params_per_layer(self) -> int:
        """Weight-parameter count of one Transformer layer.

        Counts the four attention projections (``4 * H^2``) and the two FC
        matrices (``2 * H * ffn_dim``); biases and LayerNorm affines are a
        negligible ``O(H)`` and included for completeness.
        """
        attention = 4 * self.hidden * self.hidden
        fc = 2 * self.hidden * self.ffn_dim
        small = 9 * self.hidden  # qkv/out/fc biases + 2 LayerNorm affine pairs
        return attention + fc + small

    def total_params(self) -> int:
        """Total weight parameters across all layers (excludes embeddings).

        Embedding tables are excluded to match the paper's layer-centric
        analysis; for the models in Table 2 the layer stack dominates.
        """
        return self.num_layers * self.params_per_layer()

    def scaled(
        self,
        hidden_scale: float = 1.0,
        seq_scale: float = 1.0,
        batch: Optional[int] = None,
        name: Optional[str] = None,
    ) -> "ModelConfig":
        """Derive a scaled "future" model from this one (Section 4.2.1).

        Hidden and sequence dimensions are rounded to multiples of
        ``num_heads`` and 64 respectively so shapes remain well formed.
        """
        new_hidden = max(self.num_heads, int(self.hidden * hidden_scale))
        new_hidden -= new_hidden % self.num_heads
        new_seq = max(64, int(self.seq_len * seq_scale))
        new_seq -= new_seq % 64
        return self.replace(
            name=name or f"{self.name}-scaled",
            hidden=new_hidden,
            seq_len=new_seq,
            batch=self.batch if batch is None else batch,
            ffn_dim=None,
        )

    def with_inputs(self, batch: Optional[int] = None,
                    seq_len: Optional[int] = None) -> "ModelConfig":
        """Copy with different input sizes (B and/or SL)."""
        return self.replace(
            batch=self.batch if batch is None else batch,
            seq_len=self.seq_len if seq_len is None else seq_len,
        )


class ParallelConfig(Frozen):
    """Distributed-training setup (Sections 2.3 and 3.2).

    Attributes:
        tp: Tensor-parallel degree -- layers are sliced over ``tp`` devices;
            inserts serialized all-reduces on the critical path.
        dp: Data-parallel degree -- the model is replicated ``dp`` times;
            inserts overlappable weight-gradient all-reduces.
        pp: Pipeline-parallel degree (Section 6.1.2 extension).
        ep: Expert-parallel degree for MoE models (Section 6.1.1 extension).
    """

    __slots__ = ("tp", "dp", "pp", "ep", "_hash")

    tp: int
    dp: int
    pp: int
    ep: int

    def __init__(self, tp: int = 1, dp: int = 1, pp: int = 1,
                 ep: int = 1) -> None:
        self._set(tp=tp, dp=dp, pp=pp, ep=ep)
        for name in ("tp", "dp", "pp", "ep"):
            _require_positive(name, getattr(self, name))

    @property
    def world_size(self) -> int:
        """Total device count of the training cluster."""
        return self.tp * self.dp * self.pp * self.ep

    @property
    def uses_tensor_parallelism(self) -> bool:
        return self.tp > 1

    @property
    def uses_data_parallelism(self) -> bool:
        return self.dp > 1


def validate_model_parallel(model: ModelConfig, parallel: ParallelConfig) -> None:
    """Check a (model, parallelism) pair is shape-consistent.

    Tensor parallelism slices attention by head and the FC dimension by
    column, so ``tp`` must divide ``num_heads`` and ``ffn_dim``.  Pipeline
    parallelism partitions whole layers, so ``pp`` must not exceed the layer
    count.

    Raises:
        ValueError: if any divisibility constraint is violated.
    """
    if model.num_heads % parallel.tp != 0:
        raise ValueError(
            f"num_heads ({model.num_heads}) must be divisible by TP degree "
            f"({parallel.tp})"
        )
    if model.ffn_dim % parallel.tp != 0:
        raise ValueError(
            f"ffn_dim ({model.ffn_dim}) must be divisible by TP degree "
            f"({parallel.tp})"
        )
    if parallel.pp > model.num_layers:
        raise ValueError(
            f"pipeline degree ({parallel.pp}) cannot exceed layer count "
            f"({model.num_layers})"
        )
