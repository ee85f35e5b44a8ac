"""Pinned drift multipliers of the seeded platform.

:class:`~repro.platform.drift.DriftModel` answers every query from a
pure function of ``(seed, device, window)``.  This golden records, as
``float.hex``:

* the speed multipliers of the paper's six compute units, one batched
  query per instant in ascending order, and their time multipliers from
  a second model walked in descending order, for four specs (a throttle
  with jitter; bursts with jitter on windows shorter than a second;
  exact, substring and wildcard rules; exact and substring rules that
  leave a device unmatched) at seeds 1 and 7;
* instants on and just below window boundaries at window counts around
  every power of two up to 128, and far past them;
* the per-panel finish times and per-device compute totals of drifted
  :func:`~repro.runtime.panel_loop.simulate_spmd_run` runs over 6, 300
  and 2000 devices.

A refactor of the drift code must leave every value bit-identical; a
deliberate output change must regenerate the golden and say why::

    PYTHONPATH=src python -m tests.platform.test_drift_golden
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from repro.platform.drift import DriftModel
from repro.runtime.mpi_sim import SimulatedComm
from repro.runtime.panel_loop import simulate_spmd_run

GOLDEN = Path(__file__).parent / "golden_drift.json"

DEVICES = (
    "GeForce GTX680",
    "Tesla C870",
    "socket0:c5",
    "socket1:c5",
    "socket2:c6",
    "socket3:c6",
)
#: name -> (spec, the window lengths its stochastic clauses use)
SPECS = {
    "throttle+jitter": (
        "throttle:GTX680:t0=2,tau=10,floor=0.45; jitter:*:sigma=0.01",
        (1.0,),
    ),
    "burst+jitter": (
        "burst:*:p=0.3,x=2.5,len=0.5; jitter:*:sigma=0.2,w=0.25",
        (0.5, 0.25),
    ),
    "rules": (
        "jitter:GeForce GTX680:sigma=0.3,w=2; burst:socket:p=0.6,x=3,len=1.5; "
        "jitter:c6:sigma=0.05,w=0.75; throttle:*:t0=4,tau=0,floor=0.8; "
        "jitter:*:sigma=0.02",
        (2.0, 1.5, 0.75, 1.0),
    ),
    "unmatched": (
        "jitter:GeForce GTX680:sigma=0.3,w=2; burst:socket:p=0.6,x=3,len=1.5; "
        "throttle:c5:t0=1,tau=0.5,floor=0.6",
        (2.0, 1.5),
    ),
}
SEEDS = (1, 7)
#: window counts: both sides of every power of two up to 128, and far on
WINDOWS = (1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000, 4099)
OTHER_INSTANTS = (0.0, 0.3, 2.0, 2.5, 7.77, 40.1, 10007.25)


def _instants(windows_s) -> list[float]:
    instants = set(OTHER_INSTANTS)
    for w in windows_s:
        for k in WINDOWS:
            t = k * w
            instants.update((t, math.nextafter(t, 0.0)))
    return sorted(instants)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _row(values) -> str:
    """One query's multipliers, space-separated (one line of the golden)."""
    return " ".join(_hex(values))


def _multiplier_cases():
    for name, (text, windows_s) in SPECS.items():
        instants = _instants(windows_s)
        for seed in SEEDS:
            ascending = DriftModel.from_spec(text, seed=seed)
            descending = DriftModel.from_spec(text, seed=seed)
            tag = f"{name}/seed{seed}"
            yield f"{tag}/instants", _hex(instants)
            yield f"{tag}/speed", [
                _row(ascending.speed_multipliers(DEVICES, t)) for t in instants
            ]
            yield f"{tag}/time", [
                _row(descending.time_multipliers(DEVICES, t))
                for t in reversed(instants)
            ][::-1]


SPMD_SPEC = (
    "throttle:gpu:t0=0.5,tau=1,floor=0.5; burst:cpu:p=0.2,x=2,len=0.3; "
    "jitter:*:sigma=0.1,w=0.2"
)


def _spmd_cases():
    for devices, panels in ((6, 40), (300, 30), (2000, 6)):
        names = [
            f"node{i // 4}:{'gpu' if i % 4 == 0 else 'cpu'}{i % 4}"
            for i in range(devices)
        ]
        speeds = [0.5 + (i * 37 % 11) / 4.0 for i in range(devices)]
        allocations = [float(10 + i * 13 % 29) for i in range(devices)]
        result = simulate_spmd_run(
            speeds,
            allocations,
            panels,
            comm=SimulatedComm(devices),
            drift=DriftModel.from_spec(SPMD_SPEC, seed=3),
            device_names=names,
        )
        totals = _hex(result.compute_time_s)
        tag = f"spmd/{devices}"
        yield f"{tag}/panel_finish_s", _hex(result.panel_finish_s)
        if devices <= 300:
            yield f"{tag}/compute_time_s", totals
        else:
            digest = hashlib.sha256(" ".join(totals).encode("ascii"))
            yield f"{tag}/compute_time_s.sha256", digest.hexdigest()


def _record() -> dict:
    return dict([*_multiplier_cases(), *_spmd_cases()])


def test_every_multiplier_matches_the_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    record = _record()
    assert sorted(record) == sorted(golden)
    for name in golden:
        assert record[name] == golden[name], name


def test_the_golden_crosses_window_boundaries():
    """Each window length sees the first instant of window ``k`` and the
    last one of window ``k - 1``."""
    for _, windows_s in SPECS.values():
        instants = set(_instants(windows_s))
        for w in windows_s:
            for k in WINDOWS:
                below = math.nextafter(k * w, 0.0)
                assert {k * w, below} <= instants
                assert math.floor(k * w / w) == k
                assert math.floor(below / w) == k - 1


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
