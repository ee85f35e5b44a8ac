"""Unit tests for the measurement noise model."""

import math
import statistics

import pytest

import repro.platform.events as events
from repro.platform.noise import NoiseModel
from repro.util.rng import RngStream


@pytest.fixture()
def noise():
    return NoiseModel(RngStream(99), sigma=0.05)


class TestNoiseModel:
    def test_reproducible_for_same_context(self, noise):
        a = noise.perturb(1.0, "dev", 100, 0)
        b = noise.perturb(1.0, "dev", 100, 0)
        assert a == b

    def test_different_repetitions_differ(self, noise):
        a = noise.perturb(1.0, "dev", 100, 0)
        b = noise.perturb(1.0, "dev", 100, 1)
        assert a != b

    def test_zero_sigma_identity(self):
        quiet = NoiseModel(RngStream(1), sigma=0.0)
        assert quiet.perturb(1.23, "x") == 1.23

    def test_zero_time_unperturbed(self, noise):
        assert noise.perturb(0.0, "x") == 0.0

    def test_rejects_negative_time(self, noise):
        with pytest.raises(ValueError):
            noise.perturb(-1.0, "x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "sigma, outlier_prob", [(0.05, 0.0), (0.0, 0.0), (0.05, 0.2)]
    )
    def test_rejects_non_finite_time_in_every_lane(self, bad, sigma, outlier_prob):
        """NaN is the batch lane's fault marker: a NaN ideal must not pass."""
        noise = NoiseModel(RngStream(1), sigma=sigma, outlier_prob=outlier_prob)
        with pytest.raises(ValueError, match="seconds"):
            noise.perturb(bad, "x")
        with pytest.raises(ValueError, match="seconds"):
            noise.perturb_batch(bad, ("x",), ["r0", "r1"])
        with pytest.raises(ValueError, match="seconds"):
            noise.apply(bad, 1.0, False)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseModel(RngStream(1), sigma=-0.1)

    def test_multiplicative_and_positive(self, noise):
        values = [noise.perturb(2.0, "d", i) for i in range(200)]
        assert all(v > 0 for v in values)
        # median of the multiplicative factor is ~1
        assert statistics.median(values) == pytest.approx(2.0, rel=0.05)

    def test_spread_matches_sigma_roughly(self, noise):
        import math

        logs = [math.log(noise.perturb(1.0, "d", i)) for i in range(500)]
        assert statistics.pstdev(logs) == pytest.approx(0.05, rel=0.25)

    def test_quiet_copy(self, noise):
        q = noise.quiet()
        assert q.sigma == 0.0
        assert noise.sigma == 0.05


class TestDrawAndApply:
    LEAVES = [("gpu0", "p0"), ("gpu0", "p1"), ("cpu0", "p0"), "r7"]

    @pytest.mark.parametrize(
        "sigma, outlier_prob", [(0.05, 0.0), (0.0, 0.5), (0.05, 0.5), (0.0, 0.0)]
    )
    def test_applied_draws_equal_perturb(self, sigma, outlier_prob):
        noise = NoiseModel(
            RngStream(4).child("panel-noise"),
            sigma=sigma,
            outlier_prob=outlier_prob,
            outlier_factor=7.0,
        )
        factors, outliers = noise.draw(("panel",), self.LEAVES)
        for leaf, factor, outlier in zip(self.LEAVES, factors, outliers):
            parts = leaf if isinstance(leaf, tuple) else (leaf,)
            for seconds in (0.0, 0.37, 12.5):
                assert noise.apply(seconds, factor, outlier) == noise.perturb(
                    seconds, "panel", *parts
                )

    def test_quiet_model_builds_no_generators(self, monkeypatch):
        built = []
        monkeypatch.setattr(events, "stream_keys", lambda *args: built.append(args))
        factors, outliers = NoiseModel(RngStream(1), sigma=0.0).draw(
            ("panel",), self.LEAVES
        )
        assert built == []
        assert factors.tolist() == [1.0] * 4 and not outliers.any()
