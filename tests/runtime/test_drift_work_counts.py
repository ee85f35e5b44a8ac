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

A re-plan also builds only what its truth reads: a plan's column
geometry is arranged on first read, which drift runs never do and
recovery does once per adopted plan; a plan switch prices its broadcast
in closed form, without an event engine; and a drift model resolves
each device's profile once.
"""

from __future__ import annotations

import sys

import pytest

from repro.app import matmul
from repro.app.matmul import HybridMatMul
from repro.core import batch as batch_module
from repro.core.batch import BatchSpeedModels
from repro.core.geometry import ColumnPartition, column_based_partition
from repro.core.speed_function import SpeedFunction
from repro.platform.drift import DriftModel, DriftSpec
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime import drift_control
from repro.runtime.drift_control import run_with_drift_control
from repro.runtime.episode import plan_switch_cost
from repro.runtime.event_sim import EventSimulator
from repro.runtime.mpi_sim import SimulatedComm
from repro.runtime.recovery import RecoveryPolicy, run_with_recovery
from repro.util.rng import RngStream

N = 40
C870 = "Tesla C870"
GTX = "GeForce GTX680"
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

    def counted(self, sizes, rows=None):
        if sys._getframe(1).f_code is adopt:
            calls[0] += 1
        return original(self, sizes, rows)

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


# ---------------------------------------------------------------------------
# A re-plan builds only what its truth and policy read
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", drift_control.MODES)
def test_drift_runs_with_a_drop_build_no_geometry(app, monkeypatch, mode):
    built = _count(monkeypatch, ColumnPartition, "__init__")
    result = run_with_drift_control(
        app,
        N,
        DriftModel.from_spec(RAMP, seed=11),
        mode=mode,
        drops=(DeviceDrop(30.0, C870),),
    )
    assert len(result.drops) == 1
    if mode != "static":
        assert result.commits >= 1  # the ramp re-plans before the drop
    assert built[0] == 0


@pytest.mark.parametrize("strategy", ["fpm", "observed"])
@pytest.mark.parametrize(
    "drops",
    [(), (DeviceDrop(1.0, GTX),), (DeviceDrop(0.3, GTX), DeviceDrop(0.9, C870))],
)
def test_recovery_builds_exactly_the_geometries_it_reads(
    app, monkeypatch, strategy, drops
):
    built = _count(monkeypatch, ColumnPartition, "__init__")
    result = run_with_recovery(
        app, N, drops, RecoveryPolicy(strategy=strategy)
    )
    assert len(result.drops) == len(drops)
    # the app's iteration time reads each adopted plan's rectangles once
    assert built[0] == 1 + len(result.drops)


def test_plan_switch_cost_runs_no_event_engine(monkeypatch):
    comm = SimulatedComm(16)
    policy = RecoveryPolicy()
    engines = _count(monkeypatch, EventSimulator, "__init__")
    moved, seconds = plan_switch_cost([5, 5, 0], [0, 6, 4], comm, policy)
    assert moved == 5
    assert seconds == moved * policy.migration_cost_per_block + comm.bcast_time(
        policy.replan_nbytes
    )
    assert engines[0] == 0


def test_a_drift_model_resolves_each_device_profile_once(app, monkeypatch):
    lookups = _count(monkeypatch, DriftSpec, "for_device")
    drift = DriftModel.from_spec(RAMP + "; jitter:*:sigma=0.01", seed=11)
    result = run_with_drift_control(app, N, drift, mode="oracle")
    assert result.commits >= 1
    assert lookups[0] == len(result.unit_names)
    drift.speed_multipliers(list(result.unit_names) * 2, 1e3)
    assert lookups[0] == len(result.unit_names)


class TestPlanGeometry:
    """A plan checks its allocations at once and arranges them on first read."""

    def test_partition_is_the_column_geometry_built_once(self, app, monkeypatch):
        calls = _count(monkeypatch, matmul, "column_based_partition")
        plan = app.plan(N)
        assert calls[0] == 0
        first = plan.partition
        assert plan.partition is first
        assert calls[0] == 1
        assert first == column_based_partition(plan.process_allocations, N)

    @pytest.mark.parametrize(
        "allocs, message",
        [
            ([-100, 1700, 0, 0, 0, 0], "non-negative whole number"),
            ([800.5, 799.5, 0, 0, 0, 0], "non-negative whole number"),
            ([300] * 5 + [99], "sum to 1599, expected 1600"),
        ],
    )
    def test_plan_for_units_rejects_bad_allocations_at_once(
        self, app, monkeypatch, allocs, message
    ):
        calls = _count(monkeypatch, matmul, "column_based_partition")
        with pytest.raises(ValueError, match=message):
            app.plan_for_units(N, app.compute_units(), allocs)
        assert calls[0] == 0
