"""Ablation: online repartitioning under time-varying device speed.

The FPM partition is computed once from stationary speed functions;
:mod:`repro.platform.drift` breaks that assumption with a mid-run
throttle of the node's fastest device (the GTX680), and
:mod:`repro.runtime.drift_control` answers with a CUSUM change
detector plus a hysteresis-gated repartition.  This study sweeps the
throttle *magnitude* (how far the device's speed falls) and, on the
hysteresis axis, the CUSUM decision threshold, comparing three policies
on the same drifted platform:

* **static** — the paper's baseline: keep the initial FPM partition;
* **controller** — detect the drift online and repartition only when
  the predicted makespan gain beats the migration + re-solve cost;
* **oracle** — read the true drift multipliers and repartition at the
  perfect moment (an upper bound on any online scheme).

Expected: the controller recovers most of the oracle's gain (the
benchmark gate pins >= 50% on the throttle-ramp scenario) with exactly
one repartition per step change and none on pure noise, and raising
the hysteresis threshold trades a little makespan for fewer (never
oscillating) repartitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentConfig, make_app
from repro.experiments.registry import register_experiment
from repro.platform.drift import DriftModel
from repro.platform.noise import NoiseModel
from repro.runtime.drift_control import (
    DriftControlPolicy,
    run_with_drift_control,
)
from repro.util.rng import RngStream
from repro.util.tables import render_table

MATRIX_SIZE = 40
#: the throttled device — the node's fastest, so the worst-case drift.
THROTTLED_DEVICE = "GeForce GTX680"
#: throttle floors swept (fraction of nominal speed after the ramp).
DRIFT_FLOORS = (0.8, 0.65, 0.5, 0.35)
#: CUSUM decision thresholds swept on the hysteresis axis.
THRESHOLDS = (0.2, 0.4, 0.8)
#: the ramp: throttle from t0=2 s with a 10 s time constant.
RAMP_T0_S = 2.0
RAMP_TAU_S = 10.0
#: panel-timing measurement noise fed to the controller.
PANEL_SIGMA = 0.01


@dataclass(frozen=True)
class DriftSweepPoint:
    """One (floor, threshold) cell of the sweep."""

    floor: float
    threshold: float
    static_time_s: float
    controller_time_s: float
    oracle_time_s: float
    repartitions: int  # committed controller switches
    rejects: int
    blocks_migrated: int

    @property
    def oracle_gain_s(self) -> float:
        return self.static_time_s - self.oracle_time_s

    @property
    def controller_gain_s(self) -> float:
        return self.static_time_s - self.controller_time_s

    @property
    def gain_recovered(self) -> float:
        """Controller gain as a fraction of the oracle's (1.0 = oracle)."""
        if self.oracle_gain_s <= 0.0:
            return 1.0
        return self.controller_gain_s / self.oracle_gain_s


@dataclass(frozen=True)
class DriftAblationResult:
    n: int
    device: str
    points: tuple[DriftSweepPoint, ...]
    noise_repartitions: int  # controller commits under pure noise (must be 0)
    noise_rejects: int

    @property
    def min_gain_recovered(self) -> float:
        """The worst gain-recovery cell (the benchmark gate's number)."""
        return min(p.gain_recovered for p in self.points)

    @property
    def never_oscillates(self) -> bool:
        """Zero repartitions on pure noise — the hysteresis guarantee."""
        return self.noise_repartitions == 0 and self.noise_rejects == 0


def _drift_spec(floor: float) -> str:
    return (
        f"throttle:{THROTTLED_DEVICE}:t0={RAMP_T0_S},"
        f"tau={RAMP_TAU_S},floor={floor}"
    )


def run(
    config: ExperimentConfig = ExperimentConfig(), n: int = MATRIX_SIZE
) -> DriftAblationResult:
    """Sweep throttle magnitude x hysteresis threshold on the ramp."""
    app = make_app(config)
    noise = NoiseModel(
        RngStream(config.seed).child("panel-noise"), sigma=PANEL_SIGMA
    )
    floors = DRIFT_FLOORS if not config.fast else DRIFT_FLOORS[1:3]
    thresholds = THRESHOLDS if not config.fast else THRESHOLDS[1:2]

    points = []
    for floor in floors:
        drift = DriftModel.from_spec(_drift_spec(floor), seed=config.seed)
        static = run_with_drift_control(
            app, n, drift, mode="static", noise=noise
        )
        oracle = run_with_drift_control(
            app, n, drift, mode="oracle", noise=noise
        )
        for threshold in thresholds:
            policy = DriftControlPolicy(threshold=threshold)
            controlled = run_with_drift_control(
                app, n, drift, policy, mode="controller", noise=noise
            )
            points.append(
                DriftSweepPoint(
                    floor=floor,
                    threshold=threshold,
                    static_time_s=static.total_time_s,
                    controller_time_s=controlled.total_time_s,
                    oracle_time_s=oracle.total_time_s,
                    repartitions=controlled.commits,
                    rejects=controlled.rejects,
                    blocks_migrated=controlled.blocks_migrated,
                )
            )

    # Hysteresis control: a stationary platform with the same measurement
    # noise must provoke no repartition attempts at all.
    quiet = run_with_drift_control(
        app,
        n,
        DriftModel.from_spec("", seed=config.seed),
        mode="controller",
        noise=noise,
    )
    return DriftAblationResult(
        n=n,
        device=THROTTLED_DEVICE,
        points=tuple(points),
        noise_repartitions=quiet.commits,
        noise_rejects=quiet.rejects,
    )


@register_experiment(
    "drift", run=run, kind="ablation", paper_refs=("Section II", "Section VI")
)
def format_result(result: DriftAblationResult) -> str:
    rows = [
        [
            f"{point.floor:.2f}",
            f"{point.threshold:.2f}",
            point.static_time_s,
            point.controller_time_s,
            point.oracle_time_s,
            point.repartitions,
            100 * point.gain_recovered,
        ]
        for point in result.points
    ]
    table = render_table(
        [
            "floor",
            "threshold",
            "static (s)",
            "controller (s)",
            "oracle (s)",
            "switches",
            "gain recovered (%)",
        ],
        rows,
        title=(
            f"Online repartitioning under a {result.device} throttle ramp, "
            f"{result.n}x{result.n} blocks"
        ),
    )
    oscillation = (
        "no repartitions under pure noise"
        if result.never_oscillates
        else (
            f"OSCILLATION: {result.noise_repartitions} commit(s) / "
            f"{result.noise_rejects} reject(s) under pure noise"
        )
    )
    return table + (
        f"\nworst cell recovers {100 * result.min_gain_recovered:.0f}% of "
        f"the oracle gain; {oscillation}"
    )
