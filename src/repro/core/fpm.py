"""The functional performance model: a speed function with provenance.

An FPM couples a :class:`repro.core.speed_function.SpeedFunction` with the
identity of the processing element and kernel it was built for, the
blocking factor, and the measurement protocol's statistics.  Partitioning
algorithms accept FPMs (or bare speed functions); experiments and the JSON
serializer use the metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.speed_function import SpeedFunction
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class FunctionalPerformanceModel:
    """A named, reproducible functional performance model.

    Attributes
    ----------
    name:
        The processing element the model describes (e.g. ``"socket2:c6"``
        or ``"GeForce GTX680"``).
    kernel_name:
        The benchmark kernel the samples were produced with.
    speed_function:
        The piecewise-linear empirical speed function (GFlops vs blocks).
    block_size:
        Blocking factor b of the workload units.
    repetitions_total:
        Total benchmark repetitions spent building the model (bookkeeping
        for the measurement-cost ablations).
    """

    name: str
    speed_function: SpeedFunction
    kernel_name: str = ""
    block_size: int = 640
    repetitions_total: int = 0

    def __post_init__(self) -> None:
        check_positive_int("block_size", self.block_size)
        if self.repetitions_total < 0:
            raise ValueError("repetitions_total must be >= 0")

    # Convenience pass-throughs so partitioners can take FPMs directly.
    def speed(self, size: float) -> float:
        """Speed (GFlops) at a problem size (blocks)."""
        return self.speed_function.speed(size)

    def time(self, size: float) -> float:
        """Relative execution time ``x / s(x)`` at a problem size."""
        return self.speed_function.time(size)

    def max_size_within_time(self, budget: float) -> float:
        """Inverse time function (see SpeedFunction)."""
        return self.speed_function.max_size_within_time(budget)

    @property
    def bounded(self) -> bool:
        return self.speed_function.bounded

    @property
    def max_size(self) -> float:
        return self.speed_function.max_size

    def to_constant(self, calibration_size: float) -> float:
        """The CPM constant this model would yield at one calibration size.

        Traditional partitioning derives its constants from a measurement
        at a single (usually comfortable, in-memory) size; evaluating the
        FPM there reproduces that procedure exactly (paper Section VI).
        """
        return self.speed_function.speed(calibration_size)

    def repaired(self) -> "FunctionalPerformanceModel":
        """Copy with a monotonic-time speed function (partitioner-safe)."""
        return FunctionalPerformanceModel(
            name=self.name,
            speed_function=self.speed_function.with_monotonic_time(),
            kernel_name=self.kernel_name,
            block_size=self.block_size,
            repetitions_total=self.repetitions_total,
        )


def as_speed_function(model) -> SpeedFunction:
    """Accept an FPM, a SpeedFunction, or a positive constant; normalise."""
    if isinstance(model, FunctionalPerformanceModel):
        return model.speed_function
    if isinstance(model, SpeedFunction):
        return model
    if isinstance(model, (int, float)) and not isinstance(model, bool):
        if model <= 0 or not math.isfinite(model):
            raise ValueError(f"constant speed must be positive, got {model}")
        return SpeedFunction.constant(float(model))
    raise TypeError(
        f"expected FunctionalPerformanceModel, SpeedFunction or a positive "
        f"number, got {type(model).__name__}"
    )
