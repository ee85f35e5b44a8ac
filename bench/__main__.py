"""Command line of the benchmark; run from the root of a checkout.

``python -m bench [--seed S] [--seconds T] [--runs R] [--out PATH]``
    runs every workload, each in its own subprocess, R times in turn, and
    prints every metric with its unit and sample count, the checked
    outputs and their digest.  ``--out`` saves the runs as JSON.

``python -m bench --workload NAME --seed S --seconds T --trace 0|1``
    runs one workload in this process.  The last line of standard output
    is one JSON object: ``correct``, ``attempted``, ``failed`` and the
    end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or its
    per-layer metrics (``--trace 1``).

``python -m bench compare A.json B.json``
    judges the runs in B against those in A (see :mod:`bench.compare`)
    and exits non-zero on a ``worse`` or ``CHANGED`` row.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from bench import spec as bench_spec  # noqa: E402

ROOT = bench_spec.ROOT

#: Prefix of the line that carries a workload's full record to the parent.
RECORD_PREFIX = "record: "

#: A workload subprocess that runs longer than this is stopped.
SUBPROCESS_TIMEOUT_S = 600


def _run_one(args: argparse.Namespace, spec: dict) -> int:
    # the program under test is imported from this checkout's sources
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from bench.harness import probe_setup, run_workload

    if args.setup_probe:
        print(probe_setup(args.workload, seed=args.seed, tiny=args.tiny, started=_STARTED))
        return 0
    record = run_workload(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        started=_STARTED,
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for declared in wanted:
        found = record["metrics"].get(declared["name"])
        if found is None:
            raise SystemExit(f"{args.workload}: metric {declared['name']!r} not measured")
        metrics[declared["name"]] = {"value": found["value"], "unit": declared["unit"]}
    print(_format_record(record))
    print(RECORD_PREFIX + json.dumps(record))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def _format_record(record: dict) -> str:
    lines = [
        f"== {record['workload']}  seed={record['seed']}  "
        f"attempted={record['attempted']}  failed={record['failed']}"
    ]
    for name, m in sorted(record["metrics"].items()):
        lines.append(f"  {name:<30} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}")
    for name, value in sorted(record["outputs"].items()):
        lines.append(f"  {name:<30} {value}")
    lines.extend(f"  FAILED {reason}" for reason in record["failures"])
    return "\n".join(lines)


def _format_summary(runs: dict[str, list[dict]]) -> str:
    from bench.compare import values
    from bench.stats import spread

    lines = ["== summary: median over runs; spread = interquartile range / median"]
    for name, records in runs.items():
        for metric, first in sorted(records[0]["metrics"].items()):
            found = values(records, metric)
            width = spread(found)
            lines.append(
                f"{name:<15} {metric:<30} {statistics.median(found):>14.6g} "
                f"{first['unit']:<11} n={first['n']:<6} "
                f"spread={'-' if width is None else f'{width:.3f}'}"
            )
    return "\n".join(lines)


def _environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def _run_all(args: argparse.Namespace, spec: dict) -> int:
    names = bench_spec.workload_names(spec)
    runs: dict[str, list[dict]] = {name: [] for name in names}
    for _ in range(args.runs):
        for name in names:
            command = [
                sys.executable, "-m", "bench", "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
            ] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=SUBPROCESS_TIMEOUT_S,
            )
            records = [
                line[len(RECORD_PREFIX):]
                for line in done.stdout.splitlines()
                if line.startswith(RECORD_PREFIX)
            ]
            if done.returncode != 0 or not records:
                sys.stderr.write(done.stdout + done.stderr)
                raise SystemExit(f"workload {name} failed (exit {done.returncode})")
            record = json.loads(records[-1])
            print(_format_record(record), flush=True)
            runs[name].append(record)
    result = {
        "environment": _environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "workloads": runs,
    }
    print(_format_summary(runs))
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    failed = sum(run["failed"] for records in runs.values() for run in records)
    return 1 if failed else 0


def _compare(paths: list[str], spec: dict) -> int:
    from bench.compare import compare, failed_rows, format_rows

    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    rows = compare(spec, a, b)
    print(format_rows(rows))
    return 1 if failed_rows(rows) else 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = bench_spec.load()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: python -m bench compare A.json B.json")
        return _compare(argv[1:], spec)
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=bench_spec.workload_names(spec))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=3,
                        help="runs of each workload, in turn (without --workload)")
    parser.add_argument("--out", help="write the runs as JSON (without --workload)")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    # used by a workload run to time imports and set-up in fresh processes
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return _run_one(args, spec)
    return _run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
