"""Drift detection + hysteresis-gated repartitioning: controller and runs."""

import math

import pytest

from repro.app.matmul import HybridMatMul
from repro.core.fpm import as_speed_function
from repro.core.integer import refine_integer_partition, round_partition
from repro.core.solver import Solver
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime.drift_control import (
    DriftControlPolicy,
    DriftController,
    run_with_drift_control,
)
from repro.util.rng import RngStream

N = 40
GTX = "GeForce GTX680"
C870 = "Tesla C870"

STEP = "throttle:GTX680:t0=2,tau=0,floor=0.5"
RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45"


@pytest.fixture(scope="module")
def app():
    """The paper's node with fast models covering the test sizes."""
    application = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    application.build_models(
        max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False
    )
    return application


@pytest.fixture()
def noise():
    return NoiseModel(RngStream(123).child("panel-noise"), sigma=0.01)


def _drift(spec):
    return DriftModel.from_spec(spec, seed=11)


class TestDriftControlPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slack": 0.0},
            {"threshold": 0.0},
            {"cooldown_panels": -1},
            {"commit_margin": -0.1},
            {"resolve_cost_s": -1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            DriftControlPolicy(**kwargs)


class TestDriftController:
    EXPECTED = {"gpu0": 0.5, "cpu0": 0.25}

    def test_matching_observations_never_trigger(self):
        ctl = DriftController(self.EXPECTED)
        for _ in range(100):
            assert ctl.observe(self.EXPECTED) is None
        assert ctl.detections == 0

    def test_noise_below_slack_never_triggers(self):
        ctl = DriftController(self.EXPECTED, DriftControlPolicy(slack=0.05))
        for k in range(200):
            wiggle = 1.0 + 0.02 * math.sin(k * 1.7)  # |log| < slack
            obs = {n: e * wiggle for n, e in self.EXPECTED.items()}
            assert ctl.observe(obs) is None

    def test_sustained_slowdown_triggers_with_onset_estimate(self):
        ctl = DriftController(
            self.EXPECTED, DriftControlPolicy(slack=0.05, threshold=0.4)
        )
        inflation = None
        for _ in range(10):
            obs = dict(self.EXPECTED)
            obs["gpu0"] = self.EXPECTED["gpu0"] * 2.0  # half speed
            inflation = ctl.observe(obs)
            if inflation is not None:
                break
        assert inflation is not None
        assert inflation["gpu0"] == pytest.approx(2.0)
        assert inflation["cpu0"] == pytest.approx(1.0)

    def test_speedup_triggers_negative_side(self):
        ctl = DriftController(self.EXPECTED)
        inflation = None
        for _ in range(10):
            obs = dict(self.EXPECTED)
            obs["gpu0"] = self.EXPECTED["gpu0"] / 1.8
            inflation = ctl.observe(obs)
            if inflation is not None:
                break
        assert inflation is not None
        assert inflation["gpu0"] == pytest.approx(1.0 / 1.8)

    def test_recalibration_is_hysteresis(self):
        """After recalibrating to the drifted reality, no re-trigger."""
        ctl = DriftController(self.EXPECTED)
        drifted = {n: e for n, e in self.EXPECTED.items()}
        drifted["gpu0"] *= 2.0
        while ctl.observe(drifted) is None:
            pass
        ctl.recalibrate(drifted)
        for _ in range(300):
            assert ctl.observe(drifted) is None
        assert ctl.detections == 1

    def test_cooldown_suppresses_detection(self):
        ctl = DriftController(
            self.EXPECTED,
            DriftControlPolicy(cooldown_panels=5, threshold=0.1),
        )
        ctl.recalibrate(self.EXPECTED)  # arms the cooldown
        drifted = dict(self.EXPECTED, gpu0=self.EXPECTED["gpu0"] * 3.0)
        outcomes = [ctl.observe(drifted) is not None for _ in range(6)]
        assert outcomes == [False] * 5 + [True]

    def test_recalibrating_to_survivors_forgets_a_dropped_unit(self):
        ctl = DriftController(self.EXPECTED)
        ctl.recalibrate({"cpu0": self.EXPECTED["cpu0"]})
        assert ctl.units == ("cpu0",)
        assert ctl.observe({"cpu0": 0.25}) is None

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            DriftController({})
        with pytest.raises(ValueError):
            DriftController({"gpu0": 0.0})
        ctl = DriftController(self.EXPECTED)
        for bad in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"observed_s\['gpu0'\]"):
                ctl.observe({"gpu0": bad, "cpu0": 0.25})
        with pytest.raises(TypeError):
            ctl.observe({"gpu0": True, "cpu0": 0.25})


class TestRunModes:
    def test_rejects_unknown_mode(self, app):
        with pytest.raises(ValueError):
            run_with_drift_control(app, N, _drift(""), mode="psychic")

    def test_pure_noise_zero_repartitions(self, app, noise):
        result = run_with_drift_control(
            app, N, _drift(""), mode="controller", noise=noise
        )
        assert result.commits == 0
        assert result.rejects == 0
        assert result.detections == 0
        assert result.blocks_migrated == 0

    def test_step_throttle_exactly_one_repartition(self, app, noise):
        result = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        assert result.commits == 1
        assert result.detections == 1

    def test_step_controller_beats_static(self, app, noise):
        static = run_with_drift_control(
            app, N, _drift(STEP), mode="static", noise=noise
        )
        controlled = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        assert static.commits == 0
        assert controlled.total_time_s < static.total_time_s

    def test_ramp_controller_recovers_half_oracle_gain(self, app, noise):
        runs = {
            mode: run_with_drift_control(
                app, N, _drift(RAMP), mode=mode, noise=noise
            )
            for mode in ("static", "controller", "oracle")
        }
        gain_ctl = runs["static"].total_time_s - runs["controller"].total_time_s
        gain_oracle = runs["static"].total_time_s - runs["oracle"].total_time_s
        assert gain_oracle > 0
        assert gain_ctl >= 0.5 * gain_oracle

    def test_deterministic(self, app, noise):
        a = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        b = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        assert a.total_time_s == b.total_time_s
        assert a.repartitions == b.repartitions
        assert a.final_unit_allocations == b.final_unit_allocations

    def test_commit_shifts_work_off_the_throttled_gpu(self, app, noise):
        result = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        gtx = result.unit_names.index(GTX)
        assert result.final_unit_allocations[gtx] < \
            result.baseline_unit_allocations[gtx]
        assert sum(result.final_unit_allocations) == N * N
        assert result.blocks_migrated > 0
        assert result.switch_time_s > 0.0

    def test_commit_gate_prices_gain_against_cost(self, app, noise):
        result = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        policy = DriftControlPolicy()
        for event in result.repartitions:
            if event.committed:
                assert event.predicted_gain_s > (
                    (1.0 + policy.commit_margin) * event.cost_s
                )

    def test_expensive_switch_is_rejected_but_recalibrated(self, app, noise):
        # A prohibitive migration price makes the gain gate refuse the
        # switch; hysteresis still recalibrates, so exactly one decision.
        from repro.runtime.recovery import RecoveryPolicy

        policy = DriftControlPolicy(
            recovery=RecoveryPolicy(migration_cost_per_block=1e3)
        )
        result = run_with_drift_control(
            app, N, _drift(STEP), policy, mode="controller", noise=noise
        )
        assert result.commits == 0
        assert result.rejects == 1
        assert result.blocks_migrated == 0
        assert result.final_unit_allocations == \
            result.baseline_unit_allocations

    def test_static_mode_never_reacts(self, app, noise):
        result = run_with_drift_control(
            app, N, _drift(RAMP), mode="static", noise=noise
        )
        assert result.commits == 0 and result.rejects == 0
        assert result.final_unit_allocations == \
            result.baseline_unit_allocations


class TestDropsUnderDrift:
    def test_duplicate_drop_clauses_rejected(self, app):
        drops = [DeviceDrop(1.0, C870), DeviceDrop(5.0, C870)]
        with pytest.raises(ValueError, match="at most once"):
            run_with_drift_control(app, N, _drift(""), drops=drops)

    def test_unknown_drop_device_rejected(self, app):
        with pytest.raises(ValueError, match="not on this node"):
            run_with_drift_control(
                app, N, _drift(""), drops=[DeviceDrop(1.0, "no-such-gpu")]
            )

    def test_drop_composes_with_controller(self, app, noise):
        result = run_with_drift_control(
            app,
            N,
            _drift(STEP),
            mode="controller",
            noise=noise,
            drops=[DeviceDrop(30.0, C870)],
        )
        assert [d.device for d in result.drops] == [C870]
        c870 = result.unit_names.index(C870)
        assert result.final_unit_allocations[c870] == 0
        assert sum(result.final_unit_allocations) == N * N
        assert result.commits == 1  # the step still repartitions once

    def test_drop_mid_repartition_no_double_apply(self, app, noise):
        """A drop landing inside the switch window must re-solve from the
        warm chain with ONLY the dropped row — the committed model
        rescale must not be applied a second time."""
        clean = run_with_drift_control(
            app, N, _drift(STEP), mode="controller", noise=noise
        )
        commit = next(e for e in clean.repartitions if e.committed)
        assert commit.cost_s > 0.0
        drop_time = commit.time_s + commit.cost_s / 2.0  # mid-switch
        result = run_with_drift_control(
            app,
            N,
            _drift(STEP),
            mode="controller",
            noise=noise,
            drops=[DeviceDrop(drop_time, C870)],
        )
        assert [d.device for d in result.drops] == [C870]
        # The drop interrupted the switch: the committed scales at that
        # moment are the commit event's.  An exact warm resolve over the
        # survivors must equal a COLD solve of the scaled survivor
        # models — double-applied scales would change the allocations.
        units = app.compute_units()
        scales = dict(zip([u.name for u in units], commit.speed_scales))
        survivors = [u for u in units if u.name != C870]
        fns = [
            as_speed_function(m).scaled(scales[u.name])
            for u, m in zip(units, app.models_for(units))
            if u.name != C870
        ]
        cold = Solver().solve(fns, float(N * N))
        expected = refine_integer_partition(
            fns, round_partition(fns, list(cold.allocations), N * N)
        )
        final_by_name = dict(
            zip(result.unit_names, result.final_unit_allocations)
        )
        assert [final_by_name[u.name] for u in survivors] == expected
        assert final_by_name[C870] == 0

    def test_drop_then_step_both_handled(self, app, noise):
        result = run_with_drift_control(
            app,
            N,
            _drift(STEP),
            mode="controller",
            noise=noise,
            drops=[DeviceDrop(0.5, C870)],  # before the throttle strikes
        )
        assert [d.device for d in result.drops] == [C870]
        assert result.commits == 1
        gtx = result.unit_names.index(GTX)
        assert result.final_unit_allocations[gtx] < N * N
        assert sum(result.final_unit_allocations) == N * N
