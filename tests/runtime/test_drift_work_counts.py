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

The FPM baseline (solve, rounding, plan and its geometry) and its
fault-free run are memoised on the app per ``n``: the first episode on
a fresh app pays for them once, later episodes pay nothing for them,
and changing the models forgets them.  Tests that count the baseline's
work therefore run on a fresh app whose model objects no other test has
solved.

A drift model draws its window factors a block of windows at a time: a
ramp run's per-panel queries read tables, and only a query past a
table's block folds the stream keys and makes one keyed draw.
"""

from __future__ import annotations

import dataclasses
import sys

import pytest

from repro.app import execution, matmul
from repro.app.matmul import HybridMatMul
from repro.core import batch as batch_module
from repro.core.batch import BatchSpeedModels
from repro.core.geometry import ColumnPartition, column_based_partition
from repro.core.serialization import fpm_from_dict, fpm_to_dict
from repro.core.solver import Solver
from repro.core.speed_function import SpeedFunction
from repro.platform import drift as drift_module
from repro.platform.drift import DriftModel, DriftSpec
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime import drift_control
from repro.runtime.drift_control import run_with_drift_control
from repro.runtime.episode import plan_switch_cost
from repro.runtime.event_sim import EventSimulator
from repro.runtime.mpi_sim import SimulatedComm
from repro.runtime.panel_loop import simulate_spmd_run
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


def _fresh(app) -> HybridMatMul:
    """A new app on copies of ``app``'s models: no memo, no cached batch."""
    fresh = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    fresh.set_models(
        {
            name: fpm_from_dict(fpm_to_dict(model))
            for name, model in app.build_models(max_blocks=1700.0).items()
        }
    )
    return fresh


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
    fresh = _fresh(app)
    scaled = _count(monkeypatch, SpeedFunction, "scaled")
    stacked = _count(monkeypatch, batch_module, "_stack_rows", rows=True)
    first = sum(_changed_per_decision(_run(fresh)))
    # the first episode stacks every unit for the baseline, then only
    # each decision's changes
    assert scaled[0] == first
    assert stacked[0] == len(fresh.compute_units()) + first
    result = _run(fresh)
    changed = _changed_per_decision(result)
    assert len(changed) >= 2 and sum(changed) > 0  # the ramp re-decides
    # a later episode reuses the baseline: it stacks only its changes
    assert scaled[0] == first + sum(changed)
    assert stacked[0] == len(result.unit_names) + first + sum(changed)


@pytest.mark.parametrize("episode", ["drift", "recovery"])
def test_an_episode_on_a_warm_app_makes_no_cold_solve(app, monkeypatch, episode):
    fresh = _fresh(app)
    solves = _count(monkeypatch, Solver, "solve")

    def run():
        if episode == "drift":
            _run(fresh)
        else:
            run_with_recovery(fresh, N, (DeviceDrop(1.0, GTX),))

    run()
    assert solves[0] == 1  # the baseline, once
    run()
    run()
    assert solves[0] == 1


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
    fresh = _fresh(app)
    built = _count(monkeypatch, ColumnPartition, "__init__")
    policy = RecoveryPolicy(strategy=strategy)
    result = run_with_recovery(fresh, N, drops, policy)
    assert len(result.drops) == len(drops)
    # the app's iteration time reads each adopted plan's rectangles once
    assert built[0] == 1 + len(result.drops)
    # the baseline plan, and so its geometry, is shared with later runs
    run_with_recovery(fresh, N, drops, policy)
    assert built[0] == 1 + 2 * len(result.drops)


def test_simulate_execution_calls_each_kernel_once(app, monkeypatch):
    """One ``run_time_batch`` call per distinct kernel, not per rank."""
    plan = app.plan(N)
    processes = app.processes()
    kernels = {type(p.kernel) for p in processes}
    calls = [0]
    for kind in kernels:
        original = kind.run_time_batch

        def counted(self, *args, _original=original, **kwargs):
            calls[0] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(kind, "run_time_batch", counted)
    result = app.execute(plan)
    assert all(area > 0 for area in result.areas)
    # two GPUs and four sockets: 6 calls for 24 ranks
    assert len(processes) == 24
    assert calls[0] == len({id(p.kernel) for p in processes}) == 6


class TestBaselineMemo:
    """Changing an app's models forgets its FPM baselines."""

    def test_plan_and_episode_share_one_baseline(self, app):
        fresh = _fresh(app)
        plan = fresh.plan(N)
        assert fresh.plan(N) is plan
        assert fresh.fpm_baseline(N)[1] is plan
        result = run_with_recovery(fresh, N, ())
        assert result.baseline_unit_allocations == plan.unit_allocations

    def test_set_models_forgets_the_baseline(self, app):
        fresh = _fresh(app)
        plan = fresh.plan(N)
        models = fresh.build_models(max_blocks=1700.0)
        slow_gpu = dataclasses.replace(
            models[GTX], speed_function=models[GTX].speed_function.scaled(0.5)
        )
        fresh.set_models({GTX: slow_gpu})
        replanned = fresh.plan(N)
        assert replanned is not plan
        assert replanned.allocation_of(GTX) < plan.allocation_of(GTX)
        result, _ = fresh.fpm_baseline(N)
        assert slow_gpu.speed_function in result.warm.batch.fns

    def test_building_a_new_unit_model_forgets_the_baseline(self, app):
        fresh = _fresh(app)
        plan = fresh.plan(N)
        fresh.build_models(max_blocks=1700.0)  # adds nothing: memo kept
        assert fresh.plan(N) is plan
        del fresh._models[C870]
        rebuilt = fresh.build_models(
            max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False
        )[C870]
        replanned = fresh.plan(N)
        assert replanned is not plan
        result, _ = fresh.fpm_baseline(N)
        assert rebuilt.speed_function in result.warm.batch.fns


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


def test_a_ramp_run_draws_once_per_refill_not_per_panel(monkeypatch):
    n = 80
    app = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    app.build_models(max_blocks=n * n, cpu_points=6, gpu_points=8, adaptive=False)
    folds = _count(monkeypatch, drift_module, "fold_keys")
    draws = _count(monkeypatch, drift_module, "keyed_normals")
    uniforms = _count(monkeypatch, drift_module, "keyed_uniforms")
    result = run_with_drift_control(
        app,
        n,
        DriftModel.from_spec(RAMP + "; jitter:*:sigma=0.01", seed=11),
        mode="controller",
        noise=NoiseModel(RngStream(123).child("panel-noise"), sigma=0.01),
    )
    assert result.commits >= 1
    # every unit shares one jitter window length: one fold per refill
    assert 1 <= draws[0] == folds[0] <= n // 8
    assert uniforms[0] == 0


def test_a_cluster_query_draws_no_more_than_it_reads(monkeypatch):
    """The refill's draw budget: over more devices than the budget, a
    block is one window, so a 10,000-device panel draws one factor per
    device and kind, as a per-query draw would."""
    devices = 10_000
    sizes = []
    draw = drift_module.keyed_normals

    def counted(keys, sigma):
        sizes.append(len(keys))
        return draw(keys, sigma)

    monkeypatch.setattr(drift_module, "keyed_normals", counted)
    result = simulate_spmd_run(
        [1.0 + (i % 7) for i in range(devices)],
        [10.0] * devices,
        3,
        drift=DriftModel.from_spec("jitter:*:sigma=0.1,w=0.5", seed=5),
        device_names=[f"node{i}:gpu" for i in range(devices)],
    )
    assert result.devices == devices
    assert 1 <= len(sizes) <= 3
    assert all(size == devices for size in sizes)


def _count_executions(monkeypatch) -> list[int]:
    """Count simulated executions, through the app and through recovery."""
    calls = [0]
    original = execution.simulate_execution

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(execution, "simulate_execution", counted)
    monkeypatch.setattr(matmul, "simulate_execution", counted)
    return calls


@pytest.mark.parametrize(
    "drops",
    [(), (DeviceDrop(10.0, GTX),), (DeviceDrop(10.0, GTX), DeviceDrop(20.0, C870))],
)
def test_recovery_on_a_warm_app_prices_only_post_drop_plans(app, monkeypatch, drops):
    fresh = _fresh(app)
    cold = run_with_recovery(fresh, N, drops)
    executions = _count_executions(monkeypatch)
    warm = run_with_recovery(fresh, N, drops)
    assert warm == cold
    assert len(warm.drops) == len(drops)
    assert executions[0] == len(warm.drops)


def test_changing_the_models_forgets_the_baseline_run(app):
    fresh = _fresh(app)
    run = fresh.fpm_baseline_execution(N)
    assert fresh.fpm_baseline_execution(N) is run
    assert run == fresh.execute(fresh.plan(N))
    fresh.set_models(fresh.build_models(max_blocks=1700.0))
    assert fresh.fpm_baseline_execution(N) is not run
    assert fresh.fpm_baseline_execution(N) == run


class TestPlanGeometry:
    """A plan checks its allocations at once and arranges them on first read."""

    def test_partition_is_the_column_geometry_built_once(self, app, monkeypatch):
        calls = _count(monkeypatch, matmul, "column_based_partition")
        plan = _fresh(app).plan(N)
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
