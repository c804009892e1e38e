"""Execution-time breakdown: compute vs serialized vs overlapped comm.

The paper's headline quantities (Figures 10-14) are fractions of training
time spent in each category:

* **compute** -- GEMM + fused element-wise kernels,
* **serialized communication** -- TP activation/error all-reduces on the
  critical path (Amdahl's Law edge territory),
* **overlapped communication** -- DP gradient all-reduces that run
  concurrently with backprop compute; the part that does not fit under
  compute is **exposed** and lands on the critical path too.
"""

from __future__ import annotations

from repro._frozen import Frozen

__all__ = ["Breakdown"]

#: The simulator builds one breakdown per schedule, so it assigns its
#: slots directly instead of through ``Frozen._set``.
_assign = object.__setattr__


class Breakdown(Frozen):
    """Time breakdown of one training iteration, in seconds.

    Attributes:
        compute_time: Busy time of the compute stream.
        serialized_comm_time: Total critical-path collective time.
        overlapped_comm_time: Total overlappable collective time.
        iteration_time: End-to-end iteration time (schedule makespan).
    """

    __slots__ = ("compute_time", "serialized_comm_time",
                 "overlapped_comm_time", "iteration_time")

    compute_time: float
    serialized_comm_time: float
    overlapped_comm_time: float
    iteration_time: float

    def __init__(self, compute_time: float, serialized_comm_time: float,
                 overlapped_comm_time: float, iteration_time: float) -> None:
        values = (("compute_time", compute_time),
                  ("serialized_comm_time", serialized_comm_time),
                  ("overlapped_comm_time", overlapped_comm_time),
                  ("iteration_time", iteration_time))
        for name, value in values:
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
            _assign(self, name, value)

    @property
    def exposed_comm_time(self) -> float:
        """Overlapped communication that did not fit under compute.

        Under the stream semantics of the executor, the compute +
        serialized chain runs gap-free, so anything past its finish time
        is exposed overlappable communication.
        """
        return max(
            0.0,
            self.iteration_time - self.compute_time
            - self.serialized_comm_time,
        )

    @property
    def hidden_comm_time(self) -> float:
        """Overlapped communication fully hidden under compute."""
        return self.overlapped_comm_time - self.exposed_comm_time

    @property
    def critical_path_comm_time(self) -> float:
        """All communication on the critical path (serialized + exposed)."""
        return self.serialized_comm_time + self.exposed_comm_time

    @property
    def serialized_comm_fraction(self) -> float:
        """Fraction of iteration time spent in serialized communication
        (the Figure 10/12 metric)."""
        if self.iteration_time == 0:
            return 0.0
        return self.serialized_comm_time / self.iteration_time

    @property
    def critical_comm_fraction(self) -> float:
        """Fraction of iteration time where communication is the critical
        path (the Figure 14 metric)."""
        if self.iteration_time == 0:
            return 0.0
        return self.critical_path_comm_time / self.iteration_time

    @property
    def overlapped_pct_of_compute(self) -> float:
        """Overlapped communication as a fraction of compute time (the
        Figure 11/13 metric; >= 1.0 means communication is exposed)."""
        if self.compute_time == 0:
            return 0.0 if self.overlapped_comm_time == 0 else float("inf")
        return self.overlapped_comm_time / self.compute_time

    @staticmethod
    def combine(first: "Breakdown", second: "Breakdown") -> "Breakdown":
        """Sum two breakdowns (e.g. distinct execution regions)."""
        return Breakdown(
            compute_time=first.compute_time + second.compute_time,
            serialized_comm_time=(
                first.serialized_comm_time + second.serialized_comm_time
            ),
            overlapped_comm_time=(
                first.overlapped_comm_time + second.overlapped_comm_time
            ),
            iteration_time=first.iteration_time + second.iteration_time,
        )
