"""Drifted panel-loop runs: bit-identity with the event oracle, semantics."""

import numpy as np
import pytest

from repro.platform.drift import DriftModel
from repro.runtime.panel_loop import simulate_panel_loop

from tests.oracles import panel_loop as oracle

COMPUTE = [0.21, 0.13, 0.34, 0.08]
NAMES = ["GeForce GTX680", "Tesla C870", "socket0", "socket1"]


def _model(spec="jitter:*:sigma=0.15; throttle:GTX680:t0=0.5,tau=1,floor=0.5"):
    return DriftModel.from_spec(spec, seed=31)


class TestDriftedPanelLoop:
    def test_engines_bit_identical_under_drift(self):
        vec, sca = (
            run(
                COMPUTE,
                panels=12,
                comm_s=0.01,
                drift=_model(),
                device_names=NAMES,
            )
            for run in (simulate_panel_loop, oracle.simulate_panel_loop)
        )
        assert vec.total_time_s == sca.total_time_s
        assert vec.panel_finish_s == sca.panel_finish_s
        assert vec.compute_time_s == sca.compute_time_s
        assert vec.events_processed == sca.events_processed

    def test_throttle_slows_the_run(self):
        drift = _model("throttle:*:t0=0,tau=0,floor=0.5")
        steady = simulate_panel_loop(COMPUTE, panels=10, comm_s=0.01)
        throttled = simulate_panel_loop(
            COMPUTE,
            panels=10,
            comm_s=0.01,
            drift=drift,
            device_names=NAMES,
        )
        # every device at half speed: compute exactly doubles
        assert throttled.compute_time_s == tuple(
            2.0 * t for t in steady.compute_time_s
        )
        assert throttled.total_time_s > steady.total_time_s

    def test_inert_drift_bit_identical_to_no_drift(self):
        plain = simulate_panel_loop(COMPUTE, panels=8, comm_s=0.02)
        inert = simulate_panel_loop(
            COMPUTE,
            panels=8,
            comm_s=0.02,
            drift=DriftModel.from_spec("", seed=31),
            device_names=NAMES,
        )
        assert plain.total_time_s == inert.total_time_s
        assert plain.panel_finish_s == inert.panel_finish_s
        assert plain.compute_time_s == inert.compute_time_s

    def test_multipliers_sampled_at_panel_start(self):
        # A throttle striking MID-panel leaves that panel untouched (its
        # multiplier was sampled at the panel's start instant) and only
        # stretches panels that start after t0.
        drift = DriftModel.from_spec(
            "throttle:socket0:t0=0.1,tau=0,floor=0.5", seed=31
        )
        result = simulate_panel_loop(
            COMPUTE, panels=2, drift=drift, device_names=NAMES
        )
        first = result.panel_finish_s[0]
        assert first == max(COMPUTE)  # panel 1 sampled at t=0: undrifted
        assert result.panel_finish_s[1] == first + 2.0 * max(COMPUTE)

    def test_drift_requires_device_names(self):
        with pytest.raises(ValueError, match="device_names"):
            simulate_panel_loop(COMPUTE, panels=2, drift=_model())

    def test_device_names_length_checked(self):
        with pytest.raises(ValueError, match="device_names"):
            simulate_panel_loop(
                COMPUTE,
                panels=2,
                drift=_model(),
                device_names=["just-one"],
            )

    def test_jitter_varies_per_panel_but_deterministic(self):
        drift = _model("jitter:*:sigma=0.2,w=0.25")
        a = simulate_panel_loop(
            COMPUTE, panels=6, drift=drift, device_names=NAMES
        )
        b = simulate_panel_loop(
            COMPUTE, panels=6, drift=drift, device_names=NAMES
        )
        assert a.panel_finish_s == b.panel_finish_s
        lengths = np.diff(np.array((0.0,) + a.panel_finish_s))
        assert len(set(np.round(lengths, 12))) > 1
