"""Unit tests for the time-varying device speed model."""

import math

import numpy as np
import pytest

from repro.platform.drift import (
    STEADY,
    DeviceDrift,
    DriftModel,
    DriftSpec,
    parse_drift_spec,
)
from tests.oracles import platform_events as oracle


class TestDeviceDrift:
    def test_default_profile_is_inert(self):
        assert STEADY.inert
        assert STEADY.throttle_envelope(1e9) == 1.0

    def test_hard_step_envelope(self):
        drift = DeviceDrift(throttle_t0_s=2.0, throttle_tau_s=0.0,
                            throttle_floor=0.5)
        assert drift.throttle_envelope(0.0) == 1.0
        assert drift.throttle_envelope(1.999) == 1.0
        assert drift.throttle_envelope(2.0) == 0.5
        assert drift.throttle_envelope(100.0) == 0.5

    def test_exponential_ramp_envelope(self):
        drift = DeviceDrift(throttle_t0_s=1.0, throttle_tau_s=2.0,
                            throttle_floor=0.25)
        assert drift.throttle_envelope(1.0) == 1.0  # decay starts at t0
        mid = drift.throttle_envelope(3.0)
        assert 0.25 < mid < 1.0
        assert mid == 0.25 + 0.75 * math.exp(-1.0)
        # monotone decay towards the floor
        times = [1.0, 2.0, 4.0, 8.0, 50.0]
        values = [drift.throttle_envelope(t) for t in times]
        assert values == sorted(values, reverse=True)
        assert drift.throttle_envelope(1e6) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"throttle_t0_s": -1.0},
            {"throttle_floor": 0.0},
            {"throttle_floor": 1.5},
            {"burst_prob": 1.5},
            {"burst_factor": 0.5},
            {"burst_len_s": 0.0},
            {"jitter_sigma": -0.1},
            {"jitter_window_s": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            DeviceDrift(**kwargs)

    @pytest.mark.parametrize(
        "text, field",
        [
            ("burst:*:p=1,x=nan", "burst_factor"),
            ("burst:*:p=1,x=inf", "burst_factor"),
            ("burst:*:p=1,len=nan", "burst_len_s"),
            ("burst:*:p=1,len=inf", "burst_len_s"),
            ("jitter:*:sigma=0.1,w=nan", "jitter_window_s"),
            ("jitter:*:sigma=0.1,w=inf", "jitter_window_s"),
        ],
    )
    def test_rejects_non_finite_knobs(self, text, field):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            parse_drift_spec(text)


class TestParseDriftSpec:
    def test_empty_spec_is_inert(self):
        spec = parse_drift_spec("")
        assert spec.rules == ()
        assert spec.inert
        assert spec.for_device("anything") is STEADY

    def test_full_grammar(self):
        spec = parse_drift_spec(
            "throttle:GeForce GTX680:t0=1.5,tau=0.3,floor=0.5; "
            "burst:cpu:p=0.05,x=2,len=0.5; jitter:*:sigma=0.01,w=2"
        )
        gtx = spec.for_device("GeForce GTX680")
        assert gtx.throttle_t0_s == 1.5
        assert gtx.throttle_tau_s == 0.3
        assert gtx.throttle_floor == 0.5
        cpu = spec.for_device("cpu")
        assert cpu.burst_prob == 0.05
        assert cpu.burst_factor == 2.0
        assert cpu.burst_len_s == 0.5
        other = spec.for_device("Tesla C870")
        assert other.jitter_sigma == 0.01
        assert other.jitter_window_s == 2.0

    def test_clauses_naming_same_device_merge(self):
        spec = parse_drift_spec(
            "throttle:gpu0:t0=5; jitter:gpu0:sigma=0.02"
        )
        drift = spec.for_device("gpu0")
        assert drift.throttle_t0_s == 5.0
        assert drift.jitter_sigma == 0.02
        assert len(spec.rules) == 1

    def test_match_precedence_exact_substring_wildcard(self):
        spec = parse_drift_spec(
            "jitter:*:sigma=0.3; throttle:GTX:t0=1; "
            "throttle:GeForce GTX680:t0=9"
        )
        assert spec.for_device("GeForce GTX680").throttle_t0_s == 9.0
        assert spec.for_device("GTX Titan").throttle_t0_s == 1.0
        assert spec.for_device("Tesla C870").jitter_sigma == 0.3

    @pytest.mark.parametrize(
        "text",
        [
            "throttle:gpu0",  # missing params section
            "warp:gpu0:p=1",  # unknown kind
            "throttle::t0=1",  # empty device
            "throttle:gpu0:tau=3",  # missing required t0
            "burst:gpu0:x=2",  # missing required p
            "jitter:gpu0:w=1",  # missing required sigma
            "throttle:gpu0:t0=1,volume=11",  # unknown parameter
            "throttle:gpu0:t0",  # not key=value
            "throttle:gpu0:t0=abc",  # not a number
        ],
    )
    def test_rejects_malformed_clauses(self, text):
        with pytest.raises(ValueError):
            parse_drift_spec(text)


class TestDriftModel:
    def test_same_seed_same_multipliers(self):
        spec = "jitter:*:sigma=0.1; burst:gpu0:p=0.5,x=3,len=1"
        a = DriftModel.from_spec(spec, seed=42)
        b = DriftModel.from_spec(spec, seed=42)
        for t in (0.0, 0.5, 1.0, 7.25):
            for dev in ("gpu0", "cpu1"):
                assert a.speed_multiplier(dev, t) == b.speed_multiplier(dev, t)

    def test_different_seeds_differ(self):
        spec = "jitter:*:sigma=0.1"
        a = DriftModel.from_spec(spec, seed=1)
        b = DriftModel.from_spec(spec, seed=2)
        assert a.speed_multiplier("gpu0", 0.0) != b.speed_multiplier("gpu0", 0.0)

    def test_query_order_independent(self):
        model = DriftModel.from_spec("jitter:*:sigma=0.2", seed=9)
        late = model.speed_multiplier("gpu0", 5.0)
        early = model.speed_multiplier("gpu0", 1.0)
        model2 = DriftModel.from_spec("jitter:*:sigma=0.2", seed=9)
        assert model2.speed_multiplier("gpu0", 1.0) == early
        assert model2.speed_multiplier("gpu0", 5.0) == late

    def test_inert_model_is_exactly_one(self):
        model = DriftModel.from_spec("", seed=3)
        assert model.inert
        assert model.speed_multiplier("gpu0", 123.0) == 1.0
        assert model.time_multiplier("gpu0", 123.0) == 1.0
        assert np.array_equal(
            model.speed_multipliers(["a", "b"], 4.0), np.ones(2)
        )

    def test_burst_stretches_timing_by_factor(self):
        # p=1: every window bursts; time multiplier == burst factor.
        model = DriftModel.from_spec("burst:gpu0:p=1,x=3,len=1", seed=5)
        assert model.speed_multiplier("gpu0", 0.5) == pytest.approx(1.0 / 3.0)
        assert model.time_multiplier("gpu0", 0.5) == pytest.approx(3.0)

    def test_jitter_constant_within_window(self):
        model = DriftModel.from_spec("jitter:gpu0:sigma=0.2,w=2", seed=5)
        assert model.speed_multiplier("gpu0", 0.1) == model.speed_multiplier(
            "gpu0", 1.9
        )
        assert model.speed_multiplier("gpu0", 0.1) != model.speed_multiplier(
            "gpu0", 2.1
        )

    def test_rejects_negative_time(self):
        model = DriftModel.from_spec("jitter:*:sigma=0.1", seed=5)
        with pytest.raises(ValueError):
            model.speed_multiplier("gpu0", -1.0)
        with pytest.raises(ValueError):
            model.speed_multipliers(["gpu0"], -1.0)


class TestScalarBatchBitIdentity:
    DEVICES = ["GeForce GTX680", "Tesla C870", "socket0", "socket1", "quiet"]
    SPEC = (
        "throttle:GTX680:t0=2,tau=3,floor=0.4; "
        "burst:Tesla C870:p=0.3,x=2.5,len=0.7; "
        "jitter:socket:sigma=0.05,w=1.5"
    )

    @pytest.mark.parametrize("t_s", [0.0, 0.35, 1.0, 2.0, 3.3, 17.77])
    def test_speed_multipliers_bit_identical(self, t_s):
        model = DriftModel.from_spec(self.SPEC, seed=77)
        walked = np.array(
            [oracle.speed_multiplier(model, d, t_s) for d in self.DEVICES]
        )
        scalar = np.array(
            [model.speed_multiplier(d, t_s) for d in self.DEVICES]
        )
        batch = model.speed_multipliers(self.DEVICES, t_s)
        assert np.array_equal(scalar, walked)
        assert np.array_equal(batch, walked)

    @pytest.mark.parametrize("t_s", [0.0, 2.0, 9.5])
    def test_time_multipliers_bit_identical(self, t_s):
        model = DriftModel.from_spec(self.SPEC, seed=77)
        walked = np.array(
            [1.0 / oracle.speed_multiplier(model, d, t_s) for d in self.DEVICES]
        )
        scalar = np.array(
            [model.time_multiplier(d, t_s) for d in self.DEVICES]
        )
        assert np.array_equal(scalar, walked)
        assert np.array_equal(model.time_multipliers(self.DEVICES, t_s), walked)

    def test_batch_matches_scalar_with_all_kinds_on_one_device(self):
        spec = (
            "throttle:gpu0:t0=0,tau=4,floor=0.6; burst:gpu0:p=0.5,x=2,len=1; "
            "jitter:gpu0:sigma=0.1"
        )
        model = DriftModel.from_spec(spec, seed=13)
        for t_s in np.linspace(0.0, 12.0, 25):
            t = float(t_s)
            walked = oracle.speed_multiplier(model, "gpu0", t)
            assert model.speed_multipliers(["gpu0"], t)[0] == walked
            assert model.speed_multiplier("gpu0", t) == walked
