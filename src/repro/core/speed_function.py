"""Piecewise-linear speed functions — the representation behind FPMs.

The functional performance model represents processor speed as a continuous
function of problem size, "built empirically by measuring the execution
time" at a set of sizes (paper Section II).  Between samples we interpolate
linearly; before the first sample the speed is held at the first sample's
value; after the last sample it is held constant (the paper's extension of
out-of-core models "to infinity") unless the function is marked bounded, in
which case evaluation beyond the range is an error (plain in-core kernels).

The FPM partitioning algorithm of Lastovetsky & Reddy assumes that the
*time* function ``t(x) = x / s(x)`` is increasing.  Measured functions
usually satisfy this; :meth:`SpeedFunction.with_monotonic_time` repairs
those that do not by flattening speed spikes until the assumption holds
(the standard practical fix, applied by the authors' fupermod tool).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.validation import (
    check_nonnegative,
    check_positive,
)


@dataclass(frozen=True)
class SpeedSample:
    """One empirical point of a speed function.

    ``speed`` is in GFlops (or any consistent speed unit — the partitioner
    only uses ratios).  ``rel_precision`` records the measurement's
    confidence-interval half-width relative to the mean, when known.
    """

    size: float
    speed: float
    rel_precision: float = math.nan

    def __post_init__(self) -> None:
        check_positive("size", self.size)
        check_positive("speed", self.speed)


class SpeedFunction:
    """Continuous piecewise-linear speed ``s(x)`` built from samples.

    The samples are stored once, as read-only float64 columns
    :attr:`sizes`, :attr:`speeds` and :attr:`rel_precision`;
    :attr:`samples` views them as :class:`SpeedSample` objects on demand.

    Parameters
    ----------
    samples:
        Empirical (size, speed) points; sizes must be strictly increasing.
    bounded:
        When True, evaluating beyond the last sample raises — the model is
        only defined for sizes that fit the device (in-core GPU kernels).
    """

    def __init__(self, samples: list[SpeedSample], bounded: bool = False):
        self._adopt(
            [s.size for s in samples],
            [s.speed for s in samples],
            [s.rel_precision for s in samples],
            bounded,
        )

    @classmethod
    def _from_columns(cls, sizes, speeds, rel_precision, bounded: bool) -> "SpeedFunction":
        fn = cls.__new__(cls)
        fn._adopt(sizes, speeds, rel_precision, bounded)
        return fn

    def _adopt(self, sizes, speeds, rel_precision, bounded: bool) -> None:
        """Validate the sample columns at once and store them read-only.

        Every point must be a finite positive (size, speed) pair and the
        sizes strictly increasing; a bad point raises the message
        :class:`SpeedSample` gives it.
        """
        # copies: a caller's lists or arrays stay the caller's
        xs, ss = np.array(sizes), np.array(speeds)
        if xs.size == 0:
            raise ValueError("a speed function needs at least one sample")
        # NaN fails every comparison, so it fails these too
        if not (
            xs.dtype.kind in "iuf"
            and ss.dtype.kind in "iuf"
            and xs.min() > 0
            and ss.min() > 0
            and xs.max() < math.inf
            and ss.max() < math.inf
        ):
            for x, s in zip(xs.tolist(), ss.tolist()):
                SpeedSample(x, s)
        rising = xs[1:] > xs[:-1]
        if not rising.all():
            a, b = xs[int(np.argmin(rising)) :][:2].tolist()
            raise ValueError(f"sample sizes must be strictly increasing, got {a} then {b}")
        self.sizes = _frozen(xs)
        self.speeds = _frozen(ss)
        self.rel_precision = _frozen(np.array(rel_precision))
        self.bounded = bool(bounded)

    # ------------------------------------------------------------------ api
    @cached_property
    def samples(self) -> tuple[SpeedSample, ...]:
        columns = (self.sizes, self.speeds, self.rel_precision)
        return tuple(map(SpeedSample, *(c.tolist() for c in columns)))

    @cached_property
    def _points(self) -> tuple[list[float], list[float]]:
        """Sizes and speeds as Python floats: the scalar methods bisect and
        interpolate on these, so they answer in Python floats."""
        return self.sizes.tolist(), self.speeds.tolist()

    @property
    def min_size(self) -> float:
        return self._points[0][0]

    @property
    def max_size(self) -> float:
        return self._points[0][-1]

    def speed(self, size: float) -> float:
        """Interpolated speed at ``size`` (constant beyond the sampled ends)."""
        check_nonnegative("size", size)
        sizes, speeds = self._points
        if size <= sizes[0]:
            return speeds[0]
        if size >= sizes[-1]:
            if self.bounded and size > sizes[-1] * (1 + 1e-12):
                raise ValueError(f"size {size} beyond the bounded model range [0, {sizes[-1]}]")
            return speeds[-1]
        i = bisect.bisect_right(sizes, size)
        x0, x1 = sizes[i - 1], sizes[i]
        s0, s1 = speeds[i - 1], speeds[i]
        w = (size - x0) / (x1 - x0)
        return s0 + w * (s1 - s0)

    def time(self, size: float) -> float:
        """Execution time in *size units per speed unit*: ``t(x) = x / s(x)``.

        With speed in GFlops and size in b x b blocks this is proportional
        to wall-clock seconds (one kernel run does ``2 b^3`` flops per
        block); the partitioner equalises it across processors, and any
        common factor cancels.
        """
        check_nonnegative("size", size)
        if size == 0.0:
            return 0.0
        return size / self.speed(size)

    def max_size_within_time(self, budget: float) -> float:
        """Largest ``x`` with ``t(x) <= budget`` (inverse of the time function).

        Assumes a monotonically increasing time function (see
        :meth:`is_time_monotonic`); for bounded models the answer is capped
        at the model range.

        On monotone functions the inverse is computed *exactly*: time is
        piecewise rational on the piecewise-linear speed segments, so the
        segment is found by bisecting the knot times and the equation
        ``x / (s0 + m (x - x0)) = T`` solved in closed form.  Functions
        whose knot times are not non-decreasing fall back to numerical
        bisection.
        """
        check_nonnegative("budget", budget)
        if budget == 0.0:
            return 0.0
        knot_times = self._knot_times()
        if knot_times is not None:
            return self._invert_time_exact(budget, knot_times)
        return self._invert_time_bisect(budget)

    def _knot_times(self) -> list[float] | None:
        """Times at the sample knots, or None if not non-decreasing."""
        if "_knot_times_cache" not in self.__dict__:
            times = self.sizes / self.speeds
            rising = (times[1:] >= times[:-1] * (1.0 - 1e-12)).all()
            self._knot_times_cache = times.tolist() if rising else None
        return self._knot_times_cache

    def _invert_time_exact(self, budget: float, knot_times: list[float]) -> float:
        sizes, speeds = self._points
        # the last knot within budget: past the first one only when the
        # budget is the time of a plateau that starts at the first knot,
        # which the segment search answers with the plateau's largest x
        seg = bisect.bisect_right(knot_times, budget) - 1
        if budget <= knot_times[0] and seg <= 0:
            # constant-speed head: t(x) = x / s0
            return min(budget * speeds[0], sizes[0])
        if budget >= knot_times[-1]:
            if self.bounded:
                return sizes[-1]
            # constant-speed tail
            return max(sizes[-1], budget * speeds[-1])
        seg = min(max(seg, 0), len(sizes) - 2)
        x0, x1 = sizes[seg], sizes[seg + 1]
        s0, s1 = speeds[seg], speeds[seg + 1]
        m = (s1 - s0) / (x1 - x0)
        # solve x = budget * (s0 + m (x - x0))
        denom = 1.0 - budget * m
        if abs(denom) < 1e-300:
            return x1
        x = budget * (s0 - m * x0) / denom
        return min(max(x, x0), x1)

    @cached_property
    def _invert_cache(self) -> dict[float, float]:
        return {}

    def _invert_time_bisect(self, budget: float) -> float:
        # memoised per instance: the partitioners re-query the same budgets
        # (the final bracket repeats the best midpoint), and a repeated
        # budget must return the identical allocation anyway
        cache = self._invert_cache
        hit = cache.get(budget)
        if hit is not None:
            return hit
        hi_cap = self.max_size if self.bounded else math.inf
        hi = min(max(1.0, self.min_size), hi_cap)
        while self.time(hi) <= budget:
            if hi >= hi_cap:
                return hi_cap
            hi = min(hi * 2.0, hi_cap)
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.time(mid) <= budget:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        lo = self._plateau_end(lo, budget)
        if len(cache) > 1024:
            cache.clear()
        cache[budget] = lo
        return lo

    def _plateau_end(self, x: float, budget: float) -> float:
        """The far end of a time plateau at ``budget`` that ``x`` is on or below.

        Where speed is proportional to size, time is constant along a
        segment and every size on it fits a budget equal to that time; but
        float noise of an ulp or two makes ``time(mid) <= budget`` flip at
        random along it, so bisection may stop anywhere on the plateau.
        Segments whose knot times both lie within rounding of the budget,
        from the one holding ``x`` (or the next one) on, are walked to
        their end, the largest size that fits.
        """
        sizes, speeds = self._points

        def flat(k: int) -> bool:
            return k + 1 < len(sizes) and all(
                abs(sizes[j] / speeds[j] - budget) <= 1e-12 * budget
                for j in (k, k + 1)
            )

        seg = bisect.bisect_right(sizes, x) - 1
        if seg < 0:
            return x
        if not flat(seg):
            # x may sit just below a plateau that starts at the next knot
            seg += 1
        while flat(seg):
            seg += 1
            x = sizes[seg]
        return x

    def size_at_ray(self, slope: float, cap: float = math.inf) -> float:
        """Intersection of the speed curve with the ray ``s = slope * x``.

        This is the geometric partitioning primitive of [5]: the ray's
        inverse slope is an execution time, and the intersection is the
        workload finishing exactly in that time.  On monotone-time
        functions the root is computed *exactly* — the ratio
        ``s(x) / x = 1 / t(x)`` is non-increasing, so the crossing
        segment is found by bisecting the knot ratios and the linear
        equation solved in closed form.  Non-monotone functions fall back
        to numerical bisection.  ``cap`` bounds the answer (device
        capacity); bounded models never exceed their sampled range.
        """
        check_positive("slope", slope)
        if self._knot_times() is not None:
            return self._ray_exact(slope, cap)
        return self._ray_bisect(slope, cap)

    @cached_property
    def _ray_ratios(self) -> list[float]:
        # negated knot ratios are non-decreasing -> bisect-compatible
        return (-self.speeds / self.sizes).tolist()

    def _ray_exact(self, slope: float, cap: float) -> float:
        ratios = self._ray_ratios
        sizes, speeds = self._points
        # the last knot on or above the ray: past the first one only when
        # the ray runs along a time plateau that starts at the first knot,
        # which the segment search answers with the plateau's largest x
        seg = bisect.bisect_right(ratios, -slope) - 1
        if slope >= -ratios[0] and seg <= 0:
            # constant-speed head: s(x) = s0, crossing at s0 / slope
            return min(speeds[0] / slope, sizes[0], cap)
        if slope <= -ratios[-1]:
            if self.bounded:
                return min(sizes[-1], cap)
            # constant-speed tail
            return min(speeds[-1] / slope, cap)
        seg = min(max(seg, 0), len(sizes) - 2)
        x0, x1 = sizes[seg], sizes[seg + 1]
        s0, s1 = speeds[seg], speeds[seg + 1]
        m = (s1 - s0) / (x1 - x0)
        # solve slope * x = s0 + m (x - x0)
        denom = slope - m
        if abs(denom) < 1e-300:
            return min(x1, cap)
        x = (s0 - m * x0) / denom
        return min(max(x, x0), x1, cap)

    def _ray_bisect(self, slope: float, cap: float) -> float:
        limit = cap if math.isfinite(cap) else 1e18
        if self.bounded:
            limit = min(limit, self.max_size)
        hi = min(max(1.0, self.min_size), limit)
        while slope * hi < self.speed(hi):
            if hi >= limit:
                return limit
            hi = min(hi * 2.0, limit)
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if slope * mid < self.speed(mid):
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-12 * max(1.0, hi):
                break
        return hi

    def is_time_monotonic(self) -> bool:
        """Whether ``t(x)`` is non-decreasing over the whole range.

        Exact: on each linear speed segment ``t(x) = x / (a + m x)`` is
        monotone (its slope has the sign of the intercept ``a``), so time
        rises everywhere exactly when it rises from knot to knot.
        """
        return self._knot_times() is not None

    def with_monotonic_time(self) -> "SpeedFunction":
        """A repaired copy whose time function is non-decreasing.

        Sweeping sizes upward, any sample whose speed rise would make
        ``t(x) = x / s(x)`` dip below the running maximum is clipped to the
        largest speed that keeps time non-decreasing: ``s_i <= x_i / t_max``.
        """
        repaired = []
        t_max = 0.0
        for size, speed in zip(*self._points):
            cap = size / t_max if t_max > 0 else math.inf
            speed = min(speed, cap)
            t_max = max(t_max, size / speed)
            repaired.append(speed)
        return self._from_columns(self.sizes, repaired, self.rel_precision, self.bounded)

    def scaled(self, factor: float) -> "SpeedFunction":
        """A copy with every speed multiplied by ``factor`` (> 0)."""
        check_positive("factor", factor)
        return self._from_columns(
            self.sizes, self.speeds * factor, self.rel_precision, self.bounded
        )

    @classmethod
    def constant(cls, speed: float, size: float = 1.0) -> "SpeedFunction":
        """A degenerate single-sample function — a CPM seen as an FPM."""
        return cls._from_columns([size], [speed], [math.nan], False)

    @classmethod
    def from_points(
        cls,
        sizes: list[float],
        speeds: list[float],
        bounded: bool = False,
    ) -> "SpeedFunction":
        """Build from parallel size/speed lists."""
        if len(sizes) != len(speeds):
            raise ValueError(
                f"sizes and speeds must have equal length "
                f"({len(sizes)} != {len(speeds)})"
            )
        return cls._from_columns(sizes, speeds, np.full(len(sizes), math.nan), bounded)

    # -------------------------------------------------------------- dunders
    def __len__(self) -> int:
        return len(self.sizes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpeedFunction({len(self)} samples, "
            f"range [{self.min_size}, {self.max_size}], "
            f"bounded={self.bounded})"
        )


def _frozen(column: np.ndarray) -> np.ndarray:
    """``column`` as float64 (converted only when it is not), made read-only."""
    column = column.astype(np.float64, copy=False)
    column.flags.writeable = False
    return column
