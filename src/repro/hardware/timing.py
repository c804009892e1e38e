"""The compute timing models a session, sweep or trace runs against.

:class:`TimingModels` bundles the GEMM and element-wise operator
models.  It lives here, beside the models it bundles, so that code
which only passes timing models along -- the runtime session, the
streaming sweep, the batch engine and its bounds -- does not import the
scalar simulator (:mod:`repro.sim.executor` re-exports both names).
"""

from __future__ import annotations


from repro._frozen import Frozen
from repro.hardware.elementwise import (
    DEFAULT_ELEMENTWISE_MODEL,
    ElementwiseTimingModel,
)
from repro.hardware.gemm import DEFAULT_GEMM_MODEL, GemmTimingModel

__all__ = ["TimingModels", "DEFAULT_TIMING"]


class TimingModels(Frozen):
    """Bundle of the per-operator-family timing models.

    ``without_jitter()`` yields idealized models whose runtimes follow the
    analytical scaling laws exactly -- the configuration under which
    operator-level projection is error-free (used to isolate what part of
    projection error comes from hardware non-idealities).
    """

    __slots__ = ("gemm", "elementwise")

    gemm: GemmTimingModel
    elementwise: ElementwiseTimingModel

    def __init__(self, gemm: GemmTimingModel = DEFAULT_GEMM_MODEL,
                 elementwise: ElementwiseTimingModel = (
                     DEFAULT_ELEMENTWISE_MODEL)) -> None:
        self._set(gemm=gemm, elementwise=elementwise)

    def without_jitter(self) -> "TimingModels":
        return TimingModels(
            gemm=self.gemm.without_jitter(),
            elementwise=self.elementwise.without_jitter(),
        )


DEFAULT_TIMING = TimingModels()
