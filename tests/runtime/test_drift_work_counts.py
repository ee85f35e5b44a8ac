"""Work counts of drift-controlled runs, free of timing noise.

A drift decision builds each rescaled unit model once, re-solves on the
warm batch (stacking only the replaced rows) and rounds and prices the
new plan on that same batch.  A plan's ideal panel times are computed
when the plan or the alive set changes, not on every panel, with one
:meth:`BatchSpeedModels.times_at` call on the initial solve's rows.
These tests count the calls a per-panel or per-decision rebuild would
make — :meth:`SpeedFunction.scaled`, rows stacked by ``_stack_rows`` and
the ideal-time ``times_at`` calls — so a change that brings one back
fails here whatever the machine's speed.
"""

from __future__ import annotations

import sys

import pytest

from repro.app.matmul import HybridMatMul
from repro.core import batch as batch_module
from repro.core.batch import BatchSpeedModels
from repro.core.speed_function import SpeedFunction
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime import drift_control
from repro.runtime.drift_control import run_with_drift_control
from repro.util.rng import RngStream

N = 40
C870 = "Tesla C870"
RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45"


@pytest.fixture(scope="module")
def app():
    application = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    application.build_models(
        max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False
    )
    return application


def _run(app, drops=()):
    return run_with_drift_control(
        app,
        N,
        DriftModel.from_spec(RAMP, seed=11),
        mode="controller",
        noise=NoiseModel(RngStream(123).child("panel-noise"), sigma=0.01),
        drops=drops,
    )


def _count(monkeypatch, owner, name: str, rows: bool = False) -> list[int]:
    """Patch ``owner.name`` to count calls (or, with ``rows``, models stacked)."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += len(args[0]) if rows else 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _changed_per_decision(result) -> list[int]:
    """Units whose adopted scale each decision changed (no drops)."""
    previous = (1.0,) * len(result.unit_names)
    changed = []
    for event in result.repartitions:
        changed.append(sum(a != b for a, b in zip(event.speed_scales, previous)))
        previous = event.speed_scales
    return changed


def test_a_decision_rescales_and_stacks_only_the_changed_units(app, monkeypatch):
    _run(app)  # the base models' scalar rows are cached from here on
    scaled = _count(monkeypatch, SpeedFunction, "scaled")
    stacked = _count(monkeypatch, batch_module, "_stack_rows", rows=True)
    result = _run(app)
    changed = _changed_per_decision(result)
    assert len(changed) >= 2 and sum(changed) > 0  # the ramp re-decides
    assert scaled[0] == sum(changed)
    # the initial solve stacks every unit; each decision only its changes
    assert stacked[0] == len(result.unit_names) + sum(changed)


def _count_ideal_times(monkeypatch) -> list[int]:
    """Count ``times_at`` calls made by drift control's ideal-time pricing."""
    calls = [0]
    original = BatchSpeedModels.times_at
    adopt = drift_control._DriftEpisode.adopt.__code__

    def counted(self, sizes):
        if sys._getframe(1).f_code is adopt:
            calls[0] += 1
        return original(self, sizes)

    monkeypatch.setattr(BatchSpeedModels, "times_at", counted)
    return calls


@pytest.mark.parametrize("drops", [(), (DeviceDrop(30.0, C870),)])
def test_ideal_panel_times_are_computed_once_per_plan(app, monkeypatch, drops):
    calls = _count_ideal_times(monkeypatch)
    result = _run(app, drops)
    plans = 1 + result.commits + len(result.drops)
    assert len(result.drops) == len(drops)
    # one batched call per plan: at the start, per commit and per drop
    assert calls[0] == plans
