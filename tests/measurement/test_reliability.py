"""Unit tests for the repeat-until-reliable protocol."""

import pytest

from repro.measurement.reliability import (
    Measurement,
    ReliabilityCriterion,
    measure_until_reliable,
)
from repro.util.rng import RngStream


class TestCriterion:
    def test_defaults_sane(self):
        c = ReliabilityCriterion()
        assert c.min_repetitions >= 2
        assert c.max_repetitions >= c.min_repetitions

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            ReliabilityCriterion(min_repetitions=10, max_repetitions=5)

    def test_rejects_bad_rel_err(self):
        with pytest.raises(ValueError):
            ReliabilityCriterion(rel_err=0.0)

    @pytest.mark.parametrize("confidence", [0.0, 1.0])
    def test_rejects_closed_end_confidence(self, confidence):
        # 0.0 made every sample "reliable"; 1.0 gave a NaN rel_precision
        with pytest.raises(ValueError, match="confidence"):
            ReliabilityCriterion(confidence=confidence)


class TestMeasureUntilReliable:
    def test_constant_signal_stops_at_minimum(self):
        calls = []

        def sample(rep):
            calls.append(rep)
            return 1.0

        c = ReliabilityCriterion(min_repetitions=5, max_repetitions=50)
        m = measure_until_reliable(sample, c)
        assert m.repetitions == 5
        assert m.reliable
        assert m.mean == 1.0
        assert calls == list(range(5))

    def test_noisy_signal_repeats_more(self):
        rng = RngStream(3)

        def sample(rep):
            return 1.0 * rng.child(str(rep)).lognormal_factor(0.2)

        tight = ReliabilityCriterion(
            rel_err=0.05, min_repetitions=5, max_repetitions=500
        )
        m = measure_until_reliable(sample, tight)
        assert m.repetitions > 5
        assert m.reliable

    def test_budget_exhaustion_flags_unreliable(self):
        rng = RngStream(5)

        def sample(rep):
            return 1.0 * rng.child(str(rep)).lognormal_factor(0.8)

        c = ReliabilityCriterion(rel_err=0.001, min_repetitions=5, max_repetitions=8)
        m = measure_until_reliable(sample, c)
        assert m.repetitions == 8
        assert not m.reliable
        assert m.rel_precision > 0.001

    def test_rejects_negative_timings(self):
        with pytest.raises(ValueError, match="negative"):
            measure_until_reliable(lambda rep: -1.0)

    def test_mean_and_std_consistent(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0]

        def sample(rep):
            return values[rep]

        c = ReliabilityCriterion(
            rel_err=1e-9, min_repetitions=6, max_repetitions=6
        )
        m = measure_until_reliable(sample, c)
        assert m.mean == pytest.approx(sum(values) / 6)
        assert m.std > 0


class TestMeasurement:
    def test_rejects_zero_repetitions(self):
        with pytest.raises(ValueError):
            Measurement(mean=1, std=0, repetitions=0, rel_precision=0, reliable=True)
