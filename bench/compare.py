"""``python -m bench compare A.json B.json``: the change B against the parent A.

One row per workload and bounded end-to-end metric, with a verdict:

* ``worse`` / ``better`` -- B's median moved past the metric's bound;
* ``same`` -- it stayed within the bound;
* ``unresolved`` -- A's or B's own runs spread wider than the bound, so
  the files cannot tell, unless every run of B beats every run of A.

Deterministic outputs (the digest and exact counts) must be equal, else
the row reads ``CHANGED``; the failed share of ops may not rise.
Per-layer metrics are printed with their change but not judged.
"""

from __future__ import annotations

import statistics
from typing import Iterable

from bench import stats
from bench.spec import gated

WORSE, BETTER, SAME, UNRESOLVED, CHANGED = (
    "worse", "better", "same", "unresolved", "CHANGED",
)


def values(runs: Iterable[dict], metric: str) -> list[float]:
    """The metric's value in each run that reports it."""
    return [run["metrics"][metric]["value"] for run in runs if metric in run["metrics"]]


def verdict(a: list[float], b: list[float], bound: float, better: str = "lower") -> str:
    """Judge B's runs of one metric against A's."""
    sign = 1.0 if better == "lower" else -1.0
    noise = max(stats.spread(a) or 0.0, stats.spread(b) or 0.0)
    if noise > bound:
        beats_all = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return BETTER if beats_all else UNRESOLVED
    base = statistics.median(a)
    change = sign * (statistics.median(b) - base) / abs(base)
    if change > bound:
        return WORSE
    if change < -bound:
        return BETTER
    return SAME


def fail_frac(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def compare(spec: dict, a: dict, b: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, verdict)``; verdict is None for
    per-layer rows, which are printed but not judged."""
    rows: list[tuple] = []
    for workload, a_runs in a["workloads"].items():
        b_runs = b["workloads"].get(workload)
        if b_runs is None:
            continue
        judged = set()
        for metric in gated(spec, workload):
            va, vb = values(a_runs, metric.name), values(b_runs, metric.name)
            if va and vb:
                rows.append(
                    (workload, metric.name, statistics.median(va), statistics.median(vb),
                     verdict(va, vb, metric.bound, metric.better))
                )
            judged.add(metric.name)
        fa, fb = fail_frac(a_runs), fail_frac(b_runs)
        rows.append((workload, "fail_frac", fa, fb, WORSE if fb > fa else SAME))
        keys = sorted({key for run in a_runs + b_runs for key in run["outputs"]})
        for key in keys:
            oa = {run["outputs"].get(key) for run in a_runs}
            ob = {run["outputs"].get(key) for run in b_runs}
            same = oa == ob and len(oa) == 1
            rows.append((workload, key, _one(oa), _one(ob), SAME if same else CHANGED))
        names = sorted({m for run in a_runs + b_runs for m in run["metrics"]} - judged)
        for name in names:
            va, vb = values(a_runs, name), values(b_runs, name)
            if va and vb:
                rows.append(
                    (workload, name, statistics.median(va), statistics.median(vb), None)
                )
    return rows


def _one(found: set):
    return next(iter(found)) if len(found) == 1 else f"{len(found)} values"


def format_rows(rows: list[tuple]) -> str:
    lines = [f"{'workload':<15} {'metric':<30} {'A':>14} {'B':>14} {'change':>8}  verdict"]
    for workload, metric, va, vb, word in rows:
        if isinstance(va, float) and isinstance(vb, float):
            change = f"{(vb - va) / abs(va):+.1%}" if va else ""
            a_text, b_text = f"{va:.6g}", f"{vb:.6g}"
        else:
            change = ""
            a_text, b_text = _short(va), _short(vb)
        lines.append(
            f"{workload:<15} {metric:<30} {a_text:>14} {b_text:>14} {change:>8}  "
            f"{word or '-'}"
        )
    return "\n".join(lines)


def _short(value) -> str:
    text = str(value)
    return text if len(text) <= 14 else text[:11] + "..."


def failed_rows(rows: list[tuple]) -> list[tuple]:
    return [row for row in rows if row[4] in (WORSE, CHANGED)]
