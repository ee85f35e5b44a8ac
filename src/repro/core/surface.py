"""Two-parameter speed functions (speed surfaces).

The paper defines problem size as "a set of parameters characterizing the
amount and layout of data" and notes the count is application-specific;
for the matrix application it then collapses to one parameter (area)
because "the speed of the kernel for a given matrix area x does not vary
with the nearly square shapes of submatrices".  This module supplies the
two-parameter machinery needed to *check* that collapse instead of
assuming it:

* :class:`SpeedSurface` — bilinear speed interpolation on a rectangular
  (rows x cols) grid of measurements;
* :func:`area_slice` — the 1D speed function obtained by walking the
  surface along a fixed aspect ratio, ready for the ordinary partitioner;
* :func:`aspect_sensitivity` — how much speed varies across aspect ratios
  at fixed area: small near 1:1 (validating the paper's assumption),
  growing for extreme shapes.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass


from repro.core.speed_function import SpeedFunction
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SpeedSurface:
    """Bilinear speed over a rectangular grid of (rows, cols) points.

    ``speeds[i][j]`` is the measured speed at ``(row_sizes[i],
    col_sizes[j])``.  Outside the grid the surface extends with its edge
    values, mirroring :class:`SpeedFunction`'s constant extension.
    """

    row_sizes: tuple[float, ...]
    col_sizes: tuple[float, ...]
    speeds: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        for name, axis in (("row_sizes", self.row_sizes), ("col_sizes", self.col_sizes)):
            if len(axis) < 1:
                raise ValueError(f"{name} must not be empty")
            for a, b in zip(axis, axis[1:]):
                if not 0 < a < b:
                    raise ValueError(
                        f"{name} must be positive and strictly increasing"
                    )
        if len(self.speeds) != len(self.row_sizes):
            raise ValueError(
                f"speeds has {len(self.speeds)} rows, expected "
                f"{len(self.row_sizes)}"
            )
        for row in self.speeds:
            if len(row) != len(self.col_sizes):
                raise ValueError(
                    f"speed row of length {len(row)}, expected "
                    f"{len(self.col_sizes)}"
                )
            for s in row:
                if not s > 0:
                    raise ValueError(f"speeds must be positive, got {s}")

    def speed(self, rows: float, cols: float) -> float:
        """Bilinear interpolation with constant extension outside the grid."""
        check_positive("rows", rows)
        check_positive("cols", cols)
        i0, i1, u = _bracket(self.row_sizes, rows)
        j0, j1, v = _bracket(self.col_sizes, cols)
        s00 = self.speeds[i0][j0]
        s01 = self.speeds[i0][j1]
        s10 = self.speeds[i1][j0]
        s11 = self.speeds[i1][j1]
        return (
            s00 * (1 - u) * (1 - v)
            + s01 * (1 - u) * v
            + s10 * u * (1 - v)
            + s11 * u * v
        )

    def speed_at_area(self, area: float, aspect: float = 1.0) -> float:
        """Speed at a given area for a given rows/cols aspect ratio."""
        check_positive("area", area)
        check_positive("aspect", aspect)
        rows = math.sqrt(area * aspect)
        cols = area / rows
        return self.speed(rows, cols)

    @property
    def max_area(self) -> float:
        return self.row_sizes[-1] * self.col_sizes[-1]


def _bracket(axis: tuple[float, ...], x: float) -> tuple[int, int, float]:
    """Indices and weight for 1D linear interpolation with clamping."""
    if x <= axis[0]:
        return 0, 0, 0.0
    if x >= axis[-1]:
        last = len(axis) - 1
        return last, last, 0.0
    hi = bisect.bisect_right(axis, x)
    lo = hi - 1
    w = (x - axis[lo]) / (axis[hi] - axis[lo])
    return lo, hi, w


def build_surface(
    kernel_speed,
    row_sizes: list[float],
    col_sizes: list[float],
) -> SpeedSurface:
    """Sample ``kernel_speed(rows, cols) -> speed`` over the grid."""
    speeds = tuple(
        tuple(float(kernel_speed(r, c)) for c in col_sizes) for r in row_sizes
    )
    return SpeedSurface(
        row_sizes=tuple(float(r) for r in row_sizes),
        col_sizes=tuple(float(c) for c in col_sizes),
        speeds=speeds,
    )


def area_slice(
    surface: SpeedSurface,
    areas: list[float],
    aspect: float = 1.0,
) -> SpeedFunction:
    """The 1D speed function along a fixed aspect ratio.

    This is what the paper's collapse produces for ``aspect = 1``; the
    result plugs straight into :func:`repro.core.partition.partition_fpm`.
    """
    sizes = sorted(set(areas))
    return SpeedFunction.from_points(sizes, [surface.speed_at_area(a, aspect) for a in sizes])


def aspect_sensitivity(
    surface: SpeedSurface,
    area: float,
    aspects: list[float] | None = None,
) -> float:
    """Relative speed spread across aspect ratios at a fixed area.

    Returns ``(max - min) / max`` over the aspect set (default: 1:4 to
    4:1).  The paper's near-square assumption holds when this is small
    for aspects near 1.
    """
    check_positive("area", area)
    aspects = aspects or [0.25, 0.5, 1.0, 2.0, 4.0]
    speeds = [surface.speed_at_area(area, a) for a in aspects]
    top = max(speeds)
    return (top - min(speeds)) / top
