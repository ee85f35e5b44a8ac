"""Statistical helpers for the measurement subsystem.

Section III of the paper requires that "experiments are repeated multiple
times until the results are statistically reliable".  The standard protocol
(used by the authors' fupermod tool) is: keep repeating until the half-width
of the Student-t confidence interval of the mean drops below a requested
fraction of the mean, subject to a minimum/maximum repetition count.

:class:`RunningStats` implements Welford's online algorithm so the benchmark
loop never stores the full sample history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np  # noqa: F401 - ndarray in annotations

from repro.util.validation import check_open_probability, check_positive


@lru_cache(maxsize=4096)
def _t_critical(confidence: float, dof: int) -> float:
    """Memoised, unvalidated kernel behind :func:`student_t_critical`.

    ``scipy.special`` is imported on the first call, so a process that
    never checks a sample's reliability never loads SciPy.  ``stdtrit`` is
    the inverse CDF that ``scipy.stats.t.ppf`` wraps, so the value is the
    same bit for bit.
    """
    from scipy.special import stdtrit

    alpha = 1.0 - confidence
    return float(stdtrit(dof, 1.0 - alpha / 2.0))


def student_t_critical(confidence: float, dof: int) -> float:
    """Two-sided Student-t critical value for a confidence in (0, 1) and dof >= 1."""
    check_open_probability("confidence", confidence)
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    return _t_critical(confidence, dof)


def confidence_interval(
    mean: float, std: float, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence interval of the mean of ``n`` observations."""
    if n < 2:
        raise ValueError("confidence interval needs at least 2 observations")
    half = student_t_critical(confidence, n - 1) * std / math.sqrt(n)
    return (mean - half, mean + half)


def relative_precision(mean: float, std: float, n: int, confidence: float = 0.95) -> float:
    """CI half-width divided by the mean (the reliability criterion).

    Returns ``inf`` when fewer than two observations exist or the mean is 0.
    """
    if n < 2 or mean == 0.0:
        return math.inf
    half = student_t_critical(confidence, n - 1) * std / math.sqrt(n)
    return abs(half / mean)


@dataclass
class RunningStats:
    """Welford online mean/variance accumulator.

    >>> rs = RunningStats()
    >>> for v in (1.0, 2.0, 3.0):
    ...     rs.add(v)
    >>> rs.mean
    2.0
    """

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0

    def add(self, value: float) -> None:
        """Accumulate one observation."""
        if not math.isfinite(value):
            raise ValueError(f"observation must be finite, got {value!r}")
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 until two observations exist)."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        return math.sqrt(self.variance)

    def relative_precision(self, confidence: float = 0.95) -> float:
        """Reliability criterion of the accumulated sample (see module doc)."""
        return relative_precision(self.mean, self.std, self.count, confidence)

    def is_reliable(self, rel_err: float = 0.025, confidence: float = 0.95) -> bool:
        """True when the CI half-width is within ``rel_err`` of the mean."""
        check_positive("rel_err", rel_err)
        return self.relative_precision(confidence) <= rel_err

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return a new accumulator equivalent to both samples combined."""
        if other.count == 0:
            return RunningStats(self.count, self.mean, self._m2)
        if self.count == 0:
            return RunningStats(other.count, other.mean, other._m2)
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / n
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        return RunningStats(n, mean, m2)


def first_reliable_prefix(
    stats: RunningStats,
    values: np.ndarray,
    rel_err: float,
    confidence: float,
    min_count: int,
) -> bool:
    """Absorb a chunk of observations, stopping at the first reliable prefix.

    Feeds ``values`` into ``stats`` in order and returns True when some
    prefix (of the accumulated sample, counting observations absorbed
    before this call) first satisfies ``count >= min_count`` and
    :meth:`RunningStats.is_reliable`; ``stats`` is then left exactly at the
    state after the stopping observation, as if the later values were never
    drawn.  Returns False (with every value absorbed) otherwise.

    The Welford recurrence is inherently sequential, so the chunk is
    absorbed in a scalar loop; the Student-t rule at each prefix uses the
    memoised critical value and the exact operation order of
    :func:`relative_precision`, making the stopping decision bit-identical
    to checking :meth:`RunningStats.is_reliable` after every observation
    while validating ``confidence`` once per chunk, not per observation.
    """
    check_positive("rel_err", rel_err)
    check_open_probability("confidence", confidence)
    for value in values:
        stats.add(float(value))
        if stats.count < min_count or stats.count < 2 or stats.mean == 0.0:
            continue
        t = _t_critical(confidence, stats.count - 1)
        half = t * stats.std / math.sqrt(stats.count)
        if abs(half / stats.mean) <= rel_err:
            return True
    return False


def geometric_mean(values: list[float]) -> float:
    """Geometric mean of strictly positive values."""
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    log_sum = 0.0
    for v in values:
        check_positive("value", v)
        log_sum += math.log(v)
    return math.exp(log_sum / len(values))


def coefficient_of_variation(values: list[float]) -> float:
    """Sample std / mean; 0.0 for constant or single-element samples."""
    rs = RunningStats()
    for v in values:
        rs.add(v)
    if rs.count < 2 or rs.mean == 0.0:
        return 0.0
    return rs.std / abs(rs.mean)
