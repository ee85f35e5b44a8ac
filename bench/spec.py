"""The benchmark's declared metrics: ``BENCHMARK.json`` plus workload extras.

``BENCHMARK.json`` names the metrics every workload reports, with the
bound by which each end-to-end metric may worsen.  Some end-to-end
metrics exist on one workload only; their bounds are declared here.
Nothing in this module imports the program under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"

#: End-to-end metrics of one workload only: name -> bound (lower is better).
EXTRA_BOUNDS: dict[str, dict[str, float]] = {
    "paper_repro": {},
    "service_zipf": {"p95_ms": 0.25, "warm_p50_ms": 0.25},
    "cluster_plan": {"resolve_p50_ms": 0.25, "hier_p50_ms": 0.25},
    "online_runtime": {},
}


@dataclass(frozen=True)
class Gated:
    """An end-to-end metric with its regression bound."""

    name: str
    unit: str
    better: str
    bound: float


def load(path: Path = SPEC_PATH) -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text(encoding="utf-8"))


def workload_names(spec: dict) -> list[str]:
    return [workload["name"] for workload in spec["workloads"]]


def gated(spec: dict, workload: str) -> list[Gated]:
    """Every bounded end-to-end metric of ``workload``."""
    out = [
        Gated(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ]
    out.extend(
        Gated(name, "ms", "lower", bound)
        for name, bound in EXTRA_BOUNDS[workload].items()
    )
    return out
