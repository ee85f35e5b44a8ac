import pytest

from bench import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (10, None),
        (99, None),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (10_000, 99.0),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0


def test_spread_is_the_interquartile_range_over_the_median():
    assert stats.spread([5.0]) is None
    assert stats.spread([2.0, 2.0, 2.0, 2.0]) == 0.0
    values = [float(v) for v in range(1, 11)]
    q1, _, q3 = 2.75, None, 8.25
    assert stats.spread(values) == pytest.approx((q3 - q1) / 5.5)
