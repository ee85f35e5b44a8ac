"""Every workload at tiny size emits every metric ``BENCHMARK.json`` names."""

import json
import subprocess
import sys

import pytest

from bench import spec
from bench.harness import run_workload

SPEC = spec.load()


@pytest.mark.parametrize("workload", spec.workload_names(SPEC))
def test_tiny_run_emits_every_declared_metric(workload):
    record = run_workload(workload, seed=5, seconds=0.0, trace=True, tiny=True)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= 1
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    assert not missing
    for m in declared:
        assert record["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    for name in spec.EXTRA_BOUNDS[workload]:
        assert name in record["metrics"]
    assert len(record["outputs"]["outputs_digest"]) == 32
    shares = sum(
        value["value"] for name, value in record["metrics"].items() if name.endswith("_pct")
    )
    assert shares == pytest.approx(100.0, rel=0.02)


def test_tiny_runs_of_one_seed_have_one_digest():
    first = run_workload("cluster_plan", seed=5, seconds=0.0, trace=False, tiny=True)
    second = run_workload("cluster_plan", seed=5, seconds=0.0, trace=False, tiny=True)
    assert first["outputs"] == second["outputs"]


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "online_runtime", "--seed", "2",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=spec.ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
