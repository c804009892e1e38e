"""Gradient compression for data-parallel training (Section 5 context).

A further family of communication remedies the paper's discussion
invites: shrink the gradient all-reduce itself.  Quantized gradients
(1-bit Adam-style) or low-rank factorizations (PowerSGD-style) cut the
communicated bytes by a compression ratio, at the cost of encode/decode
kernels -- element-wise passes over the gradients -- on the compute
stream.

The transform rewrites a trace's overlappable gradient all-reduces:
bytes shrink by ``ratio``; an encode kernel precedes and a decode kernel
follows each one.  Whether that wins depends on the same slack arithmetic
as Figures 11/13: compression converts exposed communication into hidden,
but its kernels consume the very compute slack that hides it.

Modeling note: under the executor's stream semantics the decode kernel is
scheduled as deferred compute work rather than an explicit dependent of
the (asynchronous) compressed all-reduce -- first-order costs (extra
compute sweeps, shrunken communication) are exact; the decode's precise
position relative to the all-reduce tail is second-order.
"""

from __future__ import annotations

from typing import List

from repro._frozen import Frozen
from repro.models.graph import (
    CollectiveKind,
    CommOp,
    ElementwiseOp,
    Op,
    Trace,
)

__all__ = ["CompressionScheme", "ONE_BIT", "POWER_SGD_RANK4",
           "compress_gradients"]


class CompressionScheme(Frozen):
    """A gradient-compression configuration.

    Attributes:
        name: Scheme label.
        ratio: Bytes-out / bytes-in (0 < ratio <= 1).
        encode_passes: Element-wise passes over the gradient to encode
            (each costs one read+write sweep).
        decode_passes: Passes to decode/apply error feedback.
    """

    __slots__ = ("name", "ratio", "encode_passes", "decode_passes")

    name: str
    ratio: float
    encode_passes: float
    decode_passes: float

    def __init__(self, name: str, ratio: float, encode_passes: float = 1.0,
                 decode_passes: float = 1.0) -> None:
        self._set(name=name, ratio=ratio, encode_passes=encode_passes,
                  decode_passes=decode_passes)
        if not 0 < self.ratio <= 1:
            raise ValueError("ratio must be in (0, 1]")
        if self.encode_passes < 0 or self.decode_passes < 0:
            raise ValueError("pass counts must be non-negative")


#: 1-bit quantization with error feedback: fp16 -> 1 bit = 1/16 bytes.
ONE_BIT = CompressionScheme(name="1-bit", ratio=1.0 / 16.0,
                            encode_passes=2.0, decode_passes=2.0)

#: PowerSGD-style low-rank (rank-4 on large matrices): ~1/50 bytes, but
#: heavier encode work (orthogonalization sweeps).
POWER_SGD_RANK4 = CompressionScheme(name="powersgd-r4", ratio=0.02,
                                    encode_passes=4.0, decode_passes=2.0)


def compress_gradients(trace: Trace, scheme: CompressionScheme) -> Trace:
    """Rewrite a trace's DP gradient all-reduces under compression.

    Raises:
        ValueError: if the trace has no overlappable gradient all-reduce.
    """
    precision_bytes = trace.model.precision.bytes
    ops: List[Op] = []
    rewritten = 0
    for op in trace.ops:
        if (isinstance(op, CommOp) and op.overlappable
                and op.collective is CollectiveKind.ALL_REDUCE):
            rewritten += 1
            elements = max(1, op.nbytes // precision_bytes)
            if scheme.encode_passes:
                ops.append(ElementwiseOp(
                    name=f"{op.name}.encode",
                    elements=elements,
                    phase=op.phase,
                    sublayer=op.sublayer,
                    rw_factor=2.0 * scheme.encode_passes,
                    kind="compress_encode",
                    layer=op.layer,
                ))
            ops.append(op.replace(
                name=f"{op.name}.compressed",
                nbytes=max(1, int(op.nbytes * scheme.ratio)),
            ))
            if scheme.decode_passes:
                ops.append(ElementwiseOp(
                    name=f"{op.name}.decode",
                    elements=elements,
                    phase=op.phase,
                    sublayer=op.sublayer,
                    rw_factor=2.0 * scheme.decode_passes,
                    kind="compress_decode",
                    layer=op.layer,
                ))
        else:
            ops.append(op)
    if not rewritten:
        raise ValueError(
            "trace has no overlappable gradient all-reduces to compress "
            "(needs a data-parallel setup)"
        )
    return Trace(model=trace.model, parallel=trace.parallel,
                 ops=tuple(ops))
