"""The one re-planning episode behind drop recovery and drift control.

Structural guards keep the drop handling in one place: under
``src/repro/runtime/`` only :mod:`repro.runtime.episode` shrinks a
communicator, prices a plan switch or schedules drop handlers, and each
drop-validation message is written once.  The metamorphic relation
checks the shared ``drop`` transition from outside: a drop that strikes
after the last panel leaves every run — both recovery strategies and all
three drift modes — equal to its drop-free run, except that the drop is
listed as ignored.
"""

from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.runtime
from repro.app.matmul import HybridMatMul
from repro.core.integer import refine_integer_partition, round_partition
from repro.core.solver import Solver
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime.drift_control import MODES, run_with_drift_control
from repro.runtime.recovery import RecoveryPolicy, run_with_recovery
from repro.util.rng import RngStream

RUNTIME = Path(repro.runtime.__file__).parent
N = 40
RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45; jitter:*:sigma=0.01"


def test_only_the_episode_shrinks_prices_and_schedules_drops():
    """Calls of ``shrink``, ``plan_switch_cost`` and ``schedule_at``, and
    ``on_drop`` handlers, appear in the episode module only."""
    guarded = ("shrink", "plan_switch_cost", "schedule_at", "on_drop")
    sites: dict[str, set[str]] = {}
    for path in sorted(RUNTIME.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", None))
            elif isinstance(node, ast.FunctionDef) and node.name == "on_drop":
                name = node.name
            else:
                continue
            if name in guarded:
                sites.setdefault(name, set()).add(path.name)
    assert sites == {name: {"episode.py"} for name in guarded}


@pytest.mark.parametrize(
    "message",
    [
        "dropped devices not on this node",
        "each device can drop at most once",
        "no surviving compute units after dropping",
    ],
)
def test_each_drop_validation_message_is_written_once(message):
    sites = {
        path.name: path.read_text(encoding="utf-8").count(message)
        for path in sorted(RUNTIME.glob("*.py"))
    }
    assert {name: k for name, k in sites.items() if k} == {"episode.py": 1}


@pytest.fixture(scope="module")
def app():
    application = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    application.build_models(
        max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False
    )
    return application


@pytest.mark.parametrize("n", [20, 40])
def test_the_baseline_is_the_apps_fpm_plan(app, n):
    plan = app.plan(n)
    recovery = run_with_recovery(app, n, ())
    drift = run_with_drift_control(
        app, n, DriftModel.from_spec("", seed=11), mode="static"
    )
    assert recovery.baseline_unit_allocations == plan.unit_allocations
    assert drift.baseline_unit_allocations == plan.unit_allocations
    assert recovery.fault_free_time_s == app.execute(plan).total_time


@pytest.mark.parametrize("dropped", range(6))
def test_the_warm_drop_replan_equals_the_cold_survivor_solve(app, dropped):
    units = app.compute_units()
    models = app.models_for([u for i, u in enumerate(units) if i != dropped])
    cold = Solver().solve(models, float(N * N))
    expected = refine_integer_partition(
        models, round_partition(models, list(cold.allocations), N * N)
    )
    result = run_with_recovery(app, N, (DeviceDrop(0.5, units[dropped].name),))
    degraded = list(result.degraded_unit_allocations)
    assert degraded.pop(dropped) == 0
    assert degraded == expected


def _recovery(strategy):
    def run(app, drops):
        result = run_with_recovery(
            app, N, drops=drops, policy=RecoveryPolicy(strategy=strategy)
        )
        return result, result.recovery_time_s

    return run


def _drift(mode):
    def run(app, drops):
        result = run_with_drift_control(
            app,
            N,
            DriftModel.from_spec(RAMP, seed=11),
            mode=mode,
            noise=NoiseModel(RngStream(123).child("panel-noise"), sigma=0.01),
            drops=drops,
        )
        return result, result.total_time_s

    return run


RUNS = {
    **{f"recovery-{s}": _recovery(s) for s in ("fpm", "observed")},
    **{f"drift-{m}": _drift(m) for m in MODES},
}


@pytest.fixture(scope="module")
def clean_runs(app):
    """Each run's drop-free result and finish time, computed once."""
    return {name: run(app, ()) for name, run in RUNS.items()}


@pytest.mark.property
@pytest.mark.parametrize("run", sorted(RUNS))
@given(
    offset=st.floats(min_value=1e-6, max_value=1e4),
    device=st.integers(min_value=0, max_value=3),
)
def test_a_drop_after_the_run_only_lands_in_ignored_drops(
    app, clean_runs, run, offset, device
):
    clean, finish_s = clean_runs[run]
    names = clean.unit_names
    drop = DeviceDrop(finish_s + offset, names[device % len(names)])
    late, _ = RUNS[run](app, (drop,))
    assert late == dataclasses.replace(clean, ignored_drops=(drop,))
