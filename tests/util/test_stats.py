"""Unit and property tests for the statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.stats import (
    RunningStats,
    _t_critical,
    coefficient_of_variation,
    confidence_interval,
    first_reliable_prefix,
    geometric_mean,
    relative_precision,
    student_t_critical,
)

#: The confidence levels of the kernel's bit-identity grid (dof 1-2000 each).
GRID_CONFIDENCES = (0.5, 0.6827, 0.8, 0.9, 0.9545, 0.95, 0.975, 0.99, 0.995, 0.999)


def scipy_t_critical(confidence, dof):
    """The reference: SciPy's Student-t quantile with the kernel's operation order."""
    from scipy import stats

    return float(stats.t.ppf(1.0 - (1.0 - confidence) / 2.0, dof))


class TestStudentT:
    def test_matches_known_value(self):
        # t(0.975, 9) ~ 2.262
        assert student_t_critical(0.95, 9) == pytest.approx(2.262, abs=1e-3)

    def test_wider_for_higher_confidence(self):
        assert student_t_critical(0.99, 10) > student_t_critical(0.90, 10)

    def test_rejects_bad_dof(self):
        with pytest.raises(ValueError):
            student_t_critical(0.95, 0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_rejects_confidence_outside_open_unit_interval(self, confidence):
        # 1.0 used to give an infinite critical value, 0.0 a zero one
        with pytest.raises(ValueError, match="confidence"):
            student_t_critical(confidence, 5)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_reliability_rules_reject_closed_ends(self, confidence):
        rs = RunningStats()
        for v in (1.0, 5.0, 9.0):
            rs.add(v)
        with pytest.raises(ValueError, match="confidence"):
            rs.relative_precision(confidence)
        with pytest.raises(ValueError, match="confidence"):
            rs.is_reliable(0.025, confidence)
        with pytest.raises(ValueError, match="confidence"):
            confidence_interval(2.0, 0.0, 3, confidence)
        with pytest.raises(ValueError, match="confidence"):
            first_reliable_prefix(RunningStats(), np.ones(6), 0.025, confidence, 5)


class TestStudentTKernel:
    """The lazy ``stdtrit`` kernel equals ``scipy.stats.t.ppf`` bit for bit."""

    @pytest.mark.parametrize("confidence", GRID_CONFIDENCES)
    def test_bit_identical_to_scipy_stats_on_grid(self, confidence):
        from scipy import stats

        dofs = np.arange(1, 2001)
        # t.ppf is elementwise: entry d is t.ppf(p, d) as a scalar call
        expected = stats.t.ppf(1.0 - (1.0 - confidence) / 2.0, dofs)
        got = np.array([student_t_critical(confidence, int(d)) for d in dofs])
        np.testing.assert_array_equal(got, expected)
        for d in (1, 2, 3, 30, 1999, 2000):
            assert student_t_critical(confidence, d) == scipy_t_critical(confidence, d)

    @given(
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=200)
    def test_bit_identical_to_scipy_stats_anywhere(self, confidence, dof):
        assert student_t_critical(confidence, dof) == scipy_t_critical(confidence, dof)

    def test_numpy_scalar_arguments_share_cache_entries(self):
        _t_critical.cache_clear()
        expected = scipy_t_critical(0.95, 9)
        first = student_t_critical(np.float64(0.95), np.int64(9))
        second = student_t_critical(0.95, 9)
        assert type(first) is float and type(second) is float
        assert first == second == expected
        assert _t_critical.cache_info().hits == 1
        assert student_t_critical(np.float64(0.9), np.int64(4)) == scipy_t_critical(0.9, 4)


class TestConfidenceInterval:
    def test_symmetric_about_mean(self):
        lo, hi = confidence_interval(10.0, 2.0, 16)
        assert lo + hi == pytest.approx(20.0)
        assert hi > 10.0

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            confidence_interval(1.0, 0.0, 1)

    def test_relative_precision_inf_for_single(self):
        assert relative_precision(1.0, 0.5, 1) == math.inf

    def test_relative_precision_zero_for_constant(self):
        assert relative_precision(5.0, 0.0, 10) == 0.0

    def test_relative_precision_equals_running_stats_method(self):
        rs = RunningStats()
        for v in (1.0, 1.2, 0.9, 1.1):
            rs.add(v)
        t = scipy_t_critical(0.95, 3)
        assert rs.relative_precision() == abs(t * rs.std / math.sqrt(4) / rs.mean)
        assert rs.relative_precision() == relative_precision(rs.mean, rs.std, 4)


class TestRunningStats:
    def test_mean_and_variance(self):
        rs = RunningStats()
        data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        for v in data:
            rs.add(v)
        assert rs.mean == pytest.approx(np.mean(data))
        assert rs.variance == pytest.approx(np.var(data, ddof=1))

    def test_rejects_nonfinite(self):
        rs = RunningStats()
        with pytest.raises(ValueError):
            rs.add(math.nan)

    def test_reliability_of_tight_sample(self):
        rs = RunningStats()
        for v in (1.0, 1.001, 0.999, 1.0, 1.0):
            rs.add(v)
        assert rs.is_reliable(rel_err=0.01)

    def test_unreliability_of_wild_sample(self):
        rs = RunningStats()
        for v in (1.0, 5.0, 0.2, 3.0, 9.0):
            rs.add(v)
        assert not rs.is_reliable(rel_err=0.01)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=60,
        )
    )
    @settings(max_examples=60)
    def test_matches_numpy_on_random_samples(self, data):
        rs = RunningStats()
        for v in data:
            rs.add(v)
        assert rs.mean == pytest.approx(float(np.mean(data)), rel=1e-9, abs=1e-6)
        assert rs.variance == pytest.approx(
            float(np.var(data, ddof=1)), rel=1e-7, abs=1e-5
        )

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=30),
        st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=30),
    )
    @settings(max_examples=40)
    def test_merge_equals_sequential(self, a, b):
        ra = RunningStats()
        for v in a:
            ra.add(v)
        rb = RunningStats()
        for v in b:
            rb.add(v)
        merged = ra.merge(rb)
        combined = RunningStats()
        for v in a + b:
            combined.add(v)
        assert merged.count == combined.count
        assert merged.mean == pytest.approx(combined.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(
            combined.variance, rel=1e-7, abs=1e-7
        )

    def test_merge_with_empty(self):
        rs = RunningStats()
        rs.add(3.0)
        merged = rs.merge(RunningStats())
        assert merged.count == 1
        assert merged.mean == 3.0


class TestAggregates:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_geometric_mean_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_coefficient_of_variation(self):
        assert coefficient_of_variation([5.0, 5.0, 5.0]) == 0.0
        assert coefficient_of_variation([1.0]) == 0.0
        assert coefficient_of_variation([1.0, 3.0]) > 0.0
