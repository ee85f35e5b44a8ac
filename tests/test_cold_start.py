"""Cold start: planning never loads SciPy; measuring loads only ``scipy.special``.

Each check runs in a fresh interpreter and reads ``sys.modules``, so it is
independent of what this test process has already imported and of timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

_SCRIPT = """
import json
import sys

import repro
import repro.cli
import repro.core
import repro.experiments.ablations
import repro.runtime
import repro.service
from repro.core.geometry import column_based_partition
from repro.core.integer import round_partition
from repro.core.solver import Solver
from repro.core.speed_function import SpeedFunction
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from repro.runtime.panel_loop import simulate_spmd_run


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


devices, n = 200, 40
models = []
for k in range(devices):
    half = 10.0 + (7 * k) % 90
    peak = 20.0 * 1.05 ** (k % 100)
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    models.append(SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes]))
result = Solver().solve(models, float(n * n))
blocks = round_partition(models, list(result.allocations), n * n)
column_based_partition(blocks, n)
simulate_spmd_run(models, blocks, 10, comm=SimulatedComm(devices, CommModel()))
planned = scipy_modules()

from repro.measurement.benchmark import HybridBenchmark
from repro.measurement.fpm_builder import FpmBuilder, SizeGrid
from repro.platform.presets import ig_icl_node

bench = HybridBenchmark(ig_icl_node(), seed=123, noise_sigma=0.01)
model = FpmBuilder(bench).build(bench.socket_kernel(2, 6), SizeGrid.linear(50, 1000, 3))
assert model.repetitions_total >= 3
print(json.dumps({"planned": planned, "measured": scipy_modules()}))
"""


def _run_cold():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_planning_loads_no_scipy_and_measuring_only_special():
    loaded = _run_cold()
    assert loaded["planned"] == []
    measured = set(loaded["measured"])
    assert "scipy.special" in measured
    assert "scipy.stats" not in measured
    assert "scipy.optimize" not in measured
