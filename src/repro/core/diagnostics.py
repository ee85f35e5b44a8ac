"""Model-quality diagnostics for partitioning decisions.

A partition is only as good as the models behind it; this module inspects
a (models, allocations) pair and reports the risks an operator should
know about before trusting the distribution:

* allocations **outside the sampled range** of their model (the model
  extrapolates with a constant — fine for flat tails, blind to cliffs);
* allocations sitting on **steep model segments**, where a small
  mis-measurement moves the balanced point a lot;
* **measurement imprecision** around the operating points, propagated to
  an estimated imbalance band.

Used by tests and available to library users; the partitioners themselves
stay pure (they never refuse to answer, they just answer with the model
they were given).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.fpm import FunctionalPerformanceModel, as_speed_function
from repro.core.speed_function import SpeedFunction


@dataclass(frozen=True)
class AllocationDiagnostic:
    """Risk assessment of one processor's operating point."""

    index: int
    allocation: float
    extrapolated: bool
    local_slope: float  # |d log s / d log x| around the operating point
    rel_precision: float  # measurement CI at the nearest sample (nan unknown)

    @property
    def steep(self) -> bool:
        """Speed changes faster than ~1.5x per doubling of size."""
        return self.local_slope > 0.6


@dataclass(frozen=True)
class PartitionDiagnostics:
    """All per-processor diagnostics plus aggregate judgements."""

    entries: tuple[AllocationDiagnostic, ...]
    estimated_imbalance_band: float

    @property
    def extrapolating(self) -> list[int]:
        return [e.index for e in self.entries if e.extrapolated]

    @property
    def steep_operating_points(self) -> list[int]:
        return [e.index for e in self.entries if e.steep]

    @property
    def trustworthy(self) -> bool:
        """No extrapolation and a tight predicted imbalance band."""
        return not self.extrapolating and self.estimated_imbalance_band < 0.1


def _local_log_slope(fn: SpeedFunction, x: float) -> float:
    """|d log s / d log x| by symmetric finite differences."""
    lo = max(fn.min_size * 0.5, x / 1.2)
    hi = x * 1.2
    if fn.bounded:
        hi = min(hi, fn.max_size)
    if hi <= lo:
        return 0.0
    s_lo, s_hi = fn.speed(lo), fn.speed(hi)
    if s_lo <= 0 or s_hi <= 0:
        return math.inf
    return abs(math.log(s_hi / s_lo) / math.log(hi / lo))


def _nearest_precision(model, x: float) -> float:
    if not isinstance(model, FunctionalPerformanceModel):
        return math.nan
    fn = model.speed_function
    return float(fn.rel_precision[np.argmin(np.abs(fn.sizes - x))])


def diagnose_partition(models, allocations) -> PartitionDiagnostics:
    """Assess the risk profile of an allocation under its models."""
    if len(models) != len(allocations):
        raise ValueError(
            f"{len(models)} models but {len(allocations)} allocations"
        )
    entries = []
    worst_precision = 0.0
    for i, (model, x) in enumerate(zip(models, allocations)):
        fn = as_speed_function(model)
        if x <= 0:
            entries.append(
                AllocationDiagnostic(
                    index=i,
                    allocation=float(x),
                    extrapolated=False,
                    local_slope=0.0,
                    rel_precision=math.nan,
                )
            )
            continue
        extrapolated = x > fn.max_size * (1 + 1e-12) or x < fn.min_size * (
            1 - 1e-12
        )
        precision = _nearest_precision(model, float(x))
        if not math.isnan(precision):
            worst_precision = max(worst_precision, precision)
        entries.append(
            AllocationDiagnostic(
                index=i,
                allocation=float(x),
                extrapolated=bool(extrapolated),
                local_slope=_local_log_slope(fn, float(x)),
                rel_precision=precision,
            )
        )
    # Measurement error of epsilon in speed shifts each finish time by
    # ~epsilon; the worst pairwise divergence is ~2 epsilon.
    return PartitionDiagnostics(
        entries=tuple(entries),
        estimated_imbalance_band=2.0 * worst_precision,
    )
