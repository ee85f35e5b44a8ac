"""The drift-controlled runtime's batched panel draws vs the scalar oracle.

``run_with_drift_control`` draws a run's whole panel-noise table up
front and each panel's drift stretches in one call.  These tests swap in
the per-unit scalar observer of ``tests/oracles/drift_control.py`` and
require equal results, with outliers on and with a device dropping mid
panel (the replayed panel must reuse its noise).  The work counts pin
the batching itself: a noisy ramp run builds no numpy generator and
makes at most ``2 + n`` keyed draw calls.
"""

from __future__ import annotations

import pytest

import repro.runtime.drift_control as drift_control
import repro.platform.events as events
import repro.util.rng as rng_module
from repro.app.matmul import HybridMatMul
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime.drift_control import MODES, run_with_drift_control
from repro.util.rng import RngStream

from tests.oracles.drift_control import panel_observer as oracle_panel_observer

N = 40
C870 = "Tesla C870"
RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45; jitter:*:sigma=0.01"


@pytest.fixture(scope="module")
def app():
    application = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    application.build_models(
        max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False
    )
    return application


def _noise(outlier_prob: float = 0.0) -> NoiseModel:
    return NoiseModel(
        RngStream(123).child("panel-noise"),
        sigma=0.01,
        outlier_prob=outlier_prob,
    )


def _run(app, monkeypatch, observer, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(drift_control, "_panel_observer", observer)
        return run_with_drift_control(
            app, N, DriftModel.from_spec(RAMP, seed=11), **kwargs
        )


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("outlier_prob", [None, 0.0, 0.2])
@pytest.mark.parametrize("drops", [(), (DeviceDrop(30.0, C870),)])
def test_matches_scalar_observer(app, monkeypatch, mode, outlier_prob, drops):
    noise = None if outlier_prob is None else _noise(outlier_prob)
    kwargs = dict(mode=mode, noise=noise, drops=drops)
    batched = run_with_drift_control(
        app, N, DriftModel.from_spec(RAMP, seed=11), **kwargs
    )
    scalar = _run(app, monkeypatch, oracle_panel_observer, **kwargs)
    assert batched == scalar
    assert [d.device for d in batched.drops] == [d.device for d in drops]


def test_replayed_panel_reuses_its_noise(app):
    names = [u.name for u in app.compute_units()]
    observe = drift_control._panel_observer(
        DriftModel.from_spec("", seed=11), _noise(0.2), N, names
    )
    first = observe(3.0, 7, tuple(names), [0.5] * len(names))
    survivors = tuple(name for name in names if name != C870)
    replay = observe(9.0, 7, survivors, [0.5] * len(survivors))
    assert replay == {name: first[name] for name in survivors}
    assert observe(3.0, 8, tuple(names), [0.5] * len(names)) != first


def _counted_draws(monkeypatch):
    counts = {"generators": 0, "draws": 0}
    real_generator = rng_module._generator
    real_keys = events.stream_keys

    def generator(seed):
        counts["generators"] += 1
        return real_generator(seed)

    def stream_keys(*args):
        counts["draws"] += 1
        return real_keys(*args)

    monkeypatch.setattr(rng_module, "_generator", generator)
    monkeypatch.setattr(events, "stream_keys", stream_keys)
    return counts


def test_noisy_ramp_draws_without_generators(app, monkeypatch):
    counts = _counted_draws(monkeypatch)
    scalar = _run(
        app, monkeypatch, oracle_panel_observer, mode="controller", noise=_noise()
    )
    counts.update(generators=0, draws=0)
    batched = run_with_drift_control(
        app, N, DriftModel.from_spec(RAMP, seed=11), noise=_noise()
    )
    assert batched == scalar
    assert batched.commits >= 1
    assert counts["generators"] == 0
    assert counts["draws"] <= 2 + N
