"""Pinned outputs of the two online re-planning entry points.

``run_with_recovery`` and ``run_with_drift_control`` share one
re-planning episode (drop handling, plan switches, the panel driver).
This golden records their complete results — every float as
``float.hex`` — for both recovery strategies and all three drift modes,
with no drop, one drop, a cascade and a drop that lands while a plan
switch or recovery is still being charged.  A refactor of the episode
must leave every value bit-identical; a deliberate output change must
regenerate the golden and say why::

    PYTHONPATH=src python -m tests.runtime.test_episode_golden
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.app.matmul import HybridMatMul
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime.drift_control import MODES, run_with_drift_control
from repro.runtime.recovery import RecoveryPolicy, run_with_recovery
from repro.util.rng import RngStream

GOLDEN = Path(__file__).parent / "golden_episode.json"
N = 40
GTX = "GeForce GTX680"
C870 = "Tesla C870"
RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45; jitter:*:sigma=0.01"


def _app() -> HybridMatMul:
    application = HybridMatMul(ig_icl_node(), seed=7, noise_sigma=0.01)
    application.build_models(
        max_blocks=1700.0, cpu_points=6, gpu_points=8, adaptive=False
    )
    return application


def _exact(value):
    """JSON form of a result: floats as ``float.hex``, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _exact(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_exact(v) for v in value]
    return value


def _recovery_cases(app):
    for strategy in ("fpm", "observed"):
        policy = RecoveryPolicy(strategy=strategy)

        def run(drops, policy=policy):
            return run_with_recovery(app, N, drops=drops, policy=policy)

        one = (DeviceDrop(1.0, GTX),)
        single = run(one)
        # the second drop lands while the first one's switch is charged
        during = 1.0 + single.migration_time_s / 2.0
        yield f"recovery/{strategy}/none", run(())
        yield f"recovery/{strategy}/one", single
        yield f"recovery/{strategy}/cascade", run(
            (DeviceDrop(0.3, GTX), DeviceDrop(0.9, C870))
        )
        yield f"recovery/{strategy}/during_recovery", run(
            one + (DeviceDrop(during, C870),)
        )


def _drift_cases(app):
    for mode in MODES:

        def run(drops, mode=mode):
            return run_with_drift_control(
                app,
                N,
                DriftModel.from_spec(RAMP, seed=11),
                mode=mode,
                noise=NoiseModel(
                    RngStream(123).child("panel-noise"),
                    sigma=0.01,
                    outlier_prob=0.1,
                ),
                drops=drops,
            )

        clean = run(())
        commit = next((e for e in clean.repartitions if e.committed), None)
        if commit is not None:
            drops = (DeviceDrop(commit.time_s + commit.cost_s / 2.0, C870),)
        else:
            # static mode switches plans only on drops: the second drop
            # lands while the first drop's switch is charged
            first = (DeviceDrop(5.0, GTX),)
            mid = 5.0 + run(first).switch_time_s / 2.0
            drops = first + (DeviceDrop(mid, C870),)
        yield f"drift/{mode}/none", clean
        yield f"drift/{mode}/mid_switch", run(drops)


def _record(app) -> dict:
    cases = list(_recovery_cases(app)) + list(_drift_cases(app))
    return {name: _exact(result) for name, result in cases}


@pytest.fixture(scope="module")
def record():
    return _record(_app())


def test_every_result_matches_the_golden(record):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(record) == sorted(golden)
    for name in golden:
        assert record[name] == golden[name], name


def test_the_golden_exercises_every_path(record):
    """Each drop case really applies its drops (none is ignored)."""
    for name, result in record.items():
        expected = {"none": 0, "one": 1}.get(name.rsplit("/", 1)[1], 2)
        if name.startswith("drift/") and name.endswith("mid_switch"):
            expected = 2 if "/static/" in name else 1
        assert len(result["drops"]) == expected, name
        assert result["ignored_drops"] == [], name
    commits = [
        e for e in record["drift/controller/none"]["repartitions"]
        if e["committed"]
    ]
    assert commits


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_record(_app()), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
