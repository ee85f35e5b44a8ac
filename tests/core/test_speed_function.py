"""Unit and property tests for piecewise-linear speed functions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fpm import FunctionalPerformanceModel
from repro.core.serialization import fpm_from_dict, fpm_to_dict
from repro.core.speed_function import SpeedFunction, SpeedSample


#: Repairs to time 3.0 on all of [0.45, 3.0], then rises: a time plateau.
PLATEAU = SpeedFunction.from_points(
    [0.45, 0.5, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0], [0.15] + [1.0] * 10
)


def fn(points, bounded=False):
    return SpeedFunction.from_points(
        [p[0] for p in points], [p[1] for p in points], bounded=bounded
    )


class TestConstruction:
    def test_needs_samples(self):
        with pytest.raises(ValueError):
            SpeedFunction([])

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fn([(2, 10), (1, 10)])

    def test_rejects_duplicate_sizes(self):
        with pytest.raises(ValueError):
            fn([(1, 10), (1, 20)])

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            SpeedSample(1.0, 0.0)

    def test_from_points_length_mismatch(self):
        with pytest.raises(ValueError):
            SpeedFunction.from_points([1, 2], [10])

    def test_constant_factory(self):
        c = SpeedFunction.constant(42.0)
        assert c.speed(0.1) == 42.0
        assert c.speed(1e9) == 42.0


class TestValidation:
    """One vectorised check, with the messages of :class:`SpeedSample`."""

    @pytest.mark.parametrize(
        "sizes, speeds, message",
        [
            ([1.0, math.nan], [2.0, 3.0], "size must be a finite positive number, got nan"),
            ([1.0, 2.0], [2.0, math.inf], "speed must be a finite positive number, got inf"),
            ([1.0, 2.0], [-2.0, 3.0], "speed must be a finite positive number, got -2.0"),
            ([0, 2], [2, 3], "size must be a finite positive number, got 0"),
            ([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], "strictly increasing, got 3.0 then 2.0"),
            ([], [], "at least one sample"),
        ],
    )
    def test_from_points_messages(self, sizes, speeds, message):
        with pytest.raises(ValueError, match=message):
            SpeedFunction.from_points(sizes, speeds)

    def test_the_first_bad_point_is_reported(self):
        with pytest.raises(ValueError, match="speed .* got 0.0"):
            SpeedFunction.from_points([1.0, -2.0], [0.0, 1.0])

    def test_non_numbers_are_type_errors(self):
        with pytest.raises(TypeError, match="size must be a number, got str"):
            SpeedFunction.from_points(["1"], [1.0])
        with pytest.raises(TypeError, match="speed must be a number, got bool"):
            SpeedFunction.constant(True)

    def test_derived_copies_are_checked(self):
        f = fn([(1.0, 1e300), (2.0, 2e300)])
        with pytest.raises(ValueError, match="got inf"):
            f.scaled(1e10)

    def test_columns_are_read_only_float64(self):
        sizes = [1, 2, 4]
        f = SpeedFunction.from_points(sizes, [3, 5, 6])
        for column in (f.sizes, f.speeds, f.rel_precision):
            assert column.dtype == np.float64
            with pytest.raises(ValueError):
                column[0] = 9.0
        assert sizes == [1, 2, 4]
        assert type(f.speed(3.0)) is float and type(f.time(3.0)) is float
        assert type(f.min_size) is float and type(f.max_size) is float

    def test_samples_view_the_columns(self):
        f = SpeedFunction([SpeedSample(1.0, 2.0, 0.1), SpeedSample(3.0, 4.0)])
        for g, factor in ((f, 1.0), (f.scaled(2.0), 2.0)):
            first, second = g.samples
            assert first == SpeedSample(1.0, 2.0 * factor, 0.1)
            assert (second.size, second.speed) == (3.0, 4.0 * factor)
            assert math.isnan(second.rel_precision)


class TestNoSampleObjects:
    """Derived functions and serialisation stay on the arrays: building
    and round-tripping a model makes no :class:`SpeedSample` objects."""

    @pytest.fixture()
    def built(self, monkeypatch):
        count = [0]
        original = SpeedSample.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(SpeedSample, "__init__", counted)
        return count

    def test_derived_copies_build_no_samples(self, built):
        f = SpeedFunction.from_points(
            [1.0, 2.0, 3.0, 8.0], [1.0, 9.0, 2.0, 4.0], bounded=True
        )
        g = f.scaled(1.5).with_monotonic_time()
        SpeedFunction.constant(3.0)
        assert g.time(2.5) > 0.0 and g.max_size_within_time(1.0) > 0.0
        assert built[0] == 0

    def test_serialisation_round_trip_builds_no_samples(self, built):
        fpm = FunctionalPerformanceModel(
            "gpu", SpeedFunction.from_points([1.0, 4.0], [2.0, 3.0])
        )
        back = fpm_from_dict(fpm_to_dict(fpm))
        assert fpm_to_dict(back) == fpm_to_dict(fpm)
        assert built[0] == 0


class TestEvaluation:
    def test_exact_at_samples(self):
        f = fn([(1, 10), (2, 20), (4, 15)])
        assert f.speed(1) == 10
        assert f.speed(2) == 20
        assert f.speed(4) == 15

    def test_linear_between_samples(self):
        f = fn([(0.5, 10), (2.5, 30)])
        assert f.speed(1.5) == pytest.approx(20.0)

    def test_constant_extension_below(self):
        f = fn([(10, 50), (20, 80)])
        assert f.speed(1) == 50

    def test_constant_extension_above_unbounded(self):
        f = fn([(10, 50), (20, 80)])
        assert f.speed(100) == 80

    def test_bounded_raises_above_range(self):
        f = fn([(10, 50), (20, 80)], bounded=True)
        with pytest.raises(ValueError, match="bounded"):
            f.speed(21)

    def test_bounded_allows_at_range_end(self):
        f = fn([(10, 50), (20, 80)], bounded=True)
        assert f.speed(20) == 80


class TestTime:
    def test_time_zero_at_zero(self):
        f = fn([(1, 10)])
        assert f.time(0.0) == 0.0

    def test_time_is_size_over_speed(self):
        f = fn([(1, 10), (100, 10)])
        assert f.time(50) == pytest.approx(5.0)

    def test_inverse_recovers_size(self):
        f = fn([(10, 10), (100, 40), (1000, 25)])
        for x in (5.0, 37.0, 250.0, 900.0):
            t = f.time(x)
            assert f.max_size_within_time(t) == pytest.approx(x, rel=1e-6)

    def test_inverse_zero_budget(self):
        f = fn([(1, 10)])
        assert f.max_size_within_time(0.0) == 0.0

    def test_inverse_caps_at_bounded_range(self):
        f = fn([(10, 10), (100, 10)], bounded=True)
        assert f.max_size_within_time(1e12) == 100.0

    def test_monotonic_check_passes_for_constant(self):
        f = fn([(1, 10), (100, 10)])
        assert f.is_time_monotonic()

    def test_monotonic_check_fails_for_superlinear_jump(self):
        # speed jumping 10 -> 1000 makes time dip
        f = fn([(10, 10), (11, 1000)])
        assert not f.is_time_monotonic()

    def test_repair_makes_time_monotonic(self):
        f = fn([(10, 10), (11, 1000), (50, 500)])
        repaired = f.with_monotonic_time()
        assert repaired.is_time_monotonic()
        # repair never raises speeds
        for s_old, s_new in zip(f.samples, repaired.samples):
            assert s_new.speed <= s_old.speed + 1e-12


class TestTransforms:
    def test_scaled(self):
        f = fn([(1, 10), (2, 20)])
        g = f.scaled(2.0)
        assert g.speed(1.5) == pytest.approx(2 * f.speed(1.5))

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fn([(1, 10)]).scaled(0.0)

    def test_len(self):
        assert len(fn([(1, 1), (2, 2), (3, 3)])) == 3


@st.composite
def speed_functions(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    sizes = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.1, max_value=1e4),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    )
    speeds = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=1e4), min_size=n, max_size=n
        )
    )
    return SpeedFunction.from_points(sizes, speeds)


class TestProperties:
    @given(speed_functions(), st.floats(min_value=0, max_value=2e4))
    @settings(max_examples=100)
    def test_speed_within_sample_envelope(self, f, x):
        s = f.speed(x)
        lo = min(p.speed for p in f.samples)
        hi = max(p.speed for p in f.samples)
        assert lo - 1e-9 <= s <= hi + 1e-9

    @given(speed_functions())
    @settings(max_examples=100)
    def test_repair_idempotent(self, f):
        once = f.with_monotonic_time()
        twice = once.with_monotonic_time()
        assert [s.speed for s in once.samples] == pytest.approx(
            [s.speed for s in twice.samples]
        )
        assert once.is_time_monotonic()

    @given(speed_functions(), st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=100)
    def test_inverse_time_respects_budget(self, f, budget):
        g = f.with_monotonic_time()
        x = g.max_size_within_time(budget)
        if x > 0:
            assert g.time(x) <= budget * (1 + 1e-6)

    @given(speed_functions(), st.floats(min_value=1e-3, max_value=1e4))
    @example(PLATEAU, 3.0)
    @example(SpeedFunction.from_points([1.0, 1816.0, 2477.0], [1.0, 1.0, 2477 / 1816]), 1816.0)
    @settings(max_examples=100)
    def test_exact_inverse_agrees_with_bisection(self, f, budget):
        """The closed-form segment inversion equals numerical bisection."""
        g = f.with_monotonic_time()
        knots = g._knot_times()
        if knots is None:
            return  # non-monotone: only the bisection path exists
        exact = g._invert_time_exact(budget, knots)
        numeric = g._invert_time_bisect(budget)
        assert exact == pytest.approx(numeric, rel=1e-6, abs=1e-6)

    @given(speed_functions(), st.floats(min_value=1e-3, max_value=1e4))
    @settings(max_examples=100)
    def test_inverse_is_tight(self, f, budget):
        """No strictly larger size still fits the budget (maximality)."""
        g = f.with_monotonic_time()
        x = g.max_size_within_time(budget)
        cap = g.max_size if g.bounded else math.inf
        bigger = min(x * (1 + 1e-4) + 1e-6, cap)
        if bigger > x:
            assert g.time(bigger) >= budget * (1 - 1e-4)


class TestRayIntersection:
    def test_constant_head_branch(self):
        f = fn([(10, 50), (20, 80)])
        # steep ray crosses the constant-speed head: x = s0 / slope
        assert f.size_at_ray(50.0) == pytest.approx(1.0)

    def test_constant_tail_branch(self):
        f = fn([(10, 50), (20, 80)])
        # shallow ray crosses the constant tail: x = s1 / slope
        assert f.size_at_ray(0.1) == pytest.approx(800.0)

    def test_bounded_tail_clamps_to_range(self):
        f = fn([(10, 50), (20, 80)], bounded=True)
        assert f.size_at_ray(0.1) == 20.0

    def test_cap_wins(self):
        f = fn([(10, 50), (20, 80)])
        assert f.size_at_ray(0.1, cap=100.0) == 100.0

    def test_interior_segment_solved_in_closed_form(self):
        f = fn([(10, 50), (20, 80)])
        # on the segment: s(x) = 50 + 3 (x - 10); slope 5 -> 5x = 20 + 3x
        assert f.size_at_ray(5.0) == pytest.approx(10.0)

    @given(speed_functions(), st.floats(min_value=1e-3, max_value=1e3))
    @example(PLATEAU, 1.0 / 3.0)
    @settings(max_examples=100)
    def test_exact_ray_agrees_with_bisection(self, f, slope):
        g = f.with_monotonic_time()
        if g._knot_times() is None:
            return  # non-monotone: only the bisection path exists
        exact = g._ray_exact(slope, math.inf)
        numeric = g._ray_bisect(slope, math.inf)
        if exact != pytest.approx(numeric, rel=1e-6, abs=1e-6):
            # a time plateau at 1 / slope: bisection lands anywhere on it,
            # the exact path answers its largest size
            assert numeric < exact
            for x in (numeric, exact):
                assert g.time(x) == pytest.approx(1.0 / slope, rel=1e-9)
            bigger = exact * (1 + 1e-6)
            assert g.time(bigger) > 1.0 / slope * (1 + 1e-12)

    def test_time_plateau_answers_its_largest_size(self):
        """Time is 3.0 on all of [0.45, 3.0]: both inverses answer 3.0."""
        g = PLATEAU.with_monotonic_time()
        assert g._knot_times()[:5] == [3.0] * 5
        assert g.max_size_within_time(3.0) == 3.0
        assert g.size_at_ray(1.0 / 3.0) == 3.0

    def test_inverse_memo_returns_identical_results(self):
        f = fn([(1, 10), (2, 20), (4, 15)])
        first = f._invert_time_bisect(0.13)
        assert f._invert_cache[0.13] == first
        assert f._invert_time_bisect(0.13) == first
