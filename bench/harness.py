"""What every workload shares: seeds, loops, the timed store and the run record.

A workload module provides ``setup(seed, sizes, workdir)``, which builds
its inputs, ``measure(ctx, seconds, run)``, the untraced phase that gives
the end-to-end numbers, and ``traced(ctx, run)``, a short phase under a
live tracer that gives the per-layer numbers.  :func:`run_workload`
drives the three and returns the workload's full record.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import importlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Iterator, Sequence

from repro.obs import MetricRegistry, Span, Tracer, use_tracer
from repro.store import ResultStore

from bench import stats
from bench.spec import ROOT
from bench.trace import fold, layer_counts, layer_shares, layer_span

#: Processes whose imports and set-up are timed; ``setup_s`` is the median.
SETUP_REPS = 3

#: A set-up probe process that runs longer than this is stopped.
PROBE_TIMEOUT_S = 120


def derive_seed(seed: int, *parts: object) -> int:
    """A 32-bit seed that depends only on ``seed`` and ``parts``."""
    digest = hashlib.blake2b(repr((seed, *parts)).encode("utf-8"), digest_size=4)
    return int.from_bytes(digest.digest(), "big")


def timed(
    fn: Callable[..., Any], *args, tracer: Tracer | None = None
) -> tuple[Any, float]:
    """``fn(*args)`` and its wall seconds, after an untimed collection.

    The harness allocates inputs between ops; collecting first keeps that
    garbage from being charged to the next op.  With a ``tracer`` the op
    runs inside a ``bench.op`` root span.
    """
    gc.collect()
    start = time.perf_counter()
    with layer_span(tracer, "bench.op"):
        result = fn(*args)
    return result, time.perf_counter() - start


def closed_loop(
    run: "Run", step: Callable[[int], None], *, seconds: float, min_ops: int
) -> None:
    """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` passed and
    ``min_ops`` steps ran.

    ``peak_rss_mb`` is read after the first ``min_ops`` steps, the ones
    whose outputs are digested, so it reflects a fixed amount of work
    rather than how many steps fitted in the time.
    """
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        step(i)
        i += 1
        if i == min_ops:
            run.metric("peak_rss_mb", peak_rss_mb(), "MB")


@dataclass
class OpenLoopResult:
    """Latencies (from each request's due time) and generator lag."""

    latencies_s: list[float]
    lag_max_s: float
    failures: list[str]


async def open_loop(
    send: Callable[[int], Awaitable[None]], count: int, rate: float
) -> OpenLoopResult:
    """Start request ``i`` at ``i / rate`` seconds regardless of replies.

    Latency runs from when a request was due, so a stall that delays the
    generator is charged to every request it held back; ``lag_max_s``
    says how late the generator started a request at worst.
    """
    loop = asyncio.get_running_loop()
    start = loop.time()
    latencies: list[float] = []
    failures: list[str] = []
    lag_max = 0.0

    async def one(i: int, due: float) -> None:
        try:
            await send(i)
        except Exception as exc:  # a failed request is counted, not timed
            failures.append(f"request {i}: {type(exc).__name__}: {exc}")
            return
        latencies.append(loop.time() - due)

    tasks = []
    for i in range(count):
        due = start + i / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lag_max = max(lag_max, loop.time() - due)
        tasks.append(asyncio.create_task(one(i, due)))
    await asyncio.gather(*tasks)
    return OpenLoopResult(latencies, lag_max, failures)


class TimedStore(ResultStore):
    """A :class:`ResultStore` that records the wall time of each get and put."""

    def __init__(self, root: str | Path, salt: str | None = None):
        super().__init__(root, salt)
        self.get_s: list[float] = []
        self.put_s: list[float] = []

    def get(self, kind: str, key: Any) -> Any | None:
        start = time.perf_counter()
        try:
            return super().get(kind, key)
        finally:
            self.get_s.append(time.perf_counter() - start)

    def put(self, kind: str, key: Any, payload: Any) -> Path:
        start = time.perf_counter()
        try:
            return super().put(kind, key, payload)
        finally:
            self.put_s.append(time.perf_counter() - start)


@dataclass
class Run:
    """Everything one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    #: name -> {"value", "unit", "n"}
    metrics: dict[str, dict] = field(default_factory=dict)
    #: deterministic outputs, compared exactly between runs of one seed
    outputs: dict[str, Any] = field(default_factory=dict)
    _digest: Any = field(default_factory=lambda: hashlib.blake2b(digest_size=16))

    def check(self, checks: dict[str, bool], where: str) -> None:
        """Count one op, failed when any named check is false."""
        self.attempted += 1
        broken = [name for name, ok in checks.items() if not ok]
        if broken:
            self.fail(f"{where}: {', '.join(broken)}", counted=True)

    def fail(self, reason: str, *, counted: bool = False) -> None:
        """Count one failed op (``counted``: already counted as attempted)."""
        if not counted:
            self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def digest(self, output: Any) -> None:
        """Fold a deterministic op output into ``outputs_digest``."""
        self._digest.update(json.dumps(output, sort_keys=True).encode("utf-8"))

    def metric(self, name: str, value: float, unit: str, n: int = 1, **extra) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit, "n": int(n), **extra}

    def latency(self, name: str, samples_s: Sequence[float], q: float = 50.0) -> None:
        """Record the ``q``-th percentile of ``samples_s`` in milliseconds."""
        if samples_s:
            self.metric(
                name, 1e3 * stats.percentile(samples_s, q), "ms", len(samples_s), q=q
            )

    def op_latencies(self, samples_s: Sequence[float]) -> None:
        """``p50_ms`` and ``tail_ms``, the highest percentile with ten
        samples beyond it, of the ops the workload times."""
        self.latency("p50_ms", samples_s)
        q = stats.tail_percentile(len(samples_s))
        if q is not None:
            self.latency("tail_ms", samples_s, q)

    def layers(
        self,
        roots: Sequence[Span],
        registry: MetricRegistry,
        op_s: Sequence[float],
        *,
        primary_s: Sequence[float] | None = None,
        untraced_p50_s: float | None = None,
    ) -> None:
        """Fold a traced phase into per-layer shares, counts and overhead.

        ``roots`` are the traced ops' ``bench.op`` spans and ``op_s`` their
        wall times; ``primary_s`` are the wall times of the ops ``p50_ms``
        times, when not all of them.  The overhead compares their median
        with ``untraced_p50_s``, by default the untraced ``p50_ms``.
        """
        if untraced_p50_s is None:
            untraced_p50_s = self.metrics["p50_ms"]["value"] / 1e3
        for name, value in layer_shares(fold(roots), sum(op_s)).items():
            self.metric(name, value, "%", len(op_s))
        for name, (value, unit) in layer_counts(registry).items():
            self.metric(name, value, unit, len(op_s))
        primary = op_s if primary_s is None else primary_s
        traced_p50 = statistics.median(primary)
        self.metric(
            "obs.trace_overhead", traced_p50 / untraced_p50_s - 1.0, "ratio", len(primary)
        )
        self.metric("obs.traced_p50_ms", 1e3 * traced_p50, "ms", len(primary))


def run_traced(fn: Callable[[Tracer], Any]) -> Tracer:
    """Run ``fn(tracer)`` with a fresh live tracer installed."""
    tracer = Tracer()
    with use_tracer(tracer):
        fn(tracer)
    return tracer


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _workdir(name: str) -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another process still uses it
            pass


def _set_up(name: str, seed: int, tiny: bool, started: float, workdir: Path):
    """Import and set up a workload; returns the module, its context and
    the seconds since ``started``."""
    module = importlib.import_module(f"bench.{name}")
    sizes = module.TINY if tiny else module.FULL
    ctx = module.setup(derive_seed(seed, name), sizes, workdir)
    return module, ctx, time.perf_counter() - started


def probe_setup(name: str, *, seed: int, tiny: bool, started: float) -> float:
    """Seconds this fresh process takes to import and set up ``name``."""
    with _workdir(name) as workdir:
        return _set_up(name, seed, tiny, started, workdir)[2]


def _probe_processes(name: str, seed: int, tiny: bool) -> list[float]:
    """:func:`probe_setup` in ``SETUP_REPS - 1`` fresh processes, in turn."""
    command = [
        sys.executable, "-m", "bench", "--workload", name, "--seed", str(seed),
        "--setup-probe",
    ] + (["--tiny"] if tiny else [])
    out = []
    for _ in range(SETUP_REPS - 1):
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S, check=True,
        )
        out.append(float(done.stdout.split()[-1]))
    return out


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    started: float | None = None,
) -> dict:
    """Set up, measure and (with ``trace``) attribute one workload.

    ``started`` is the ``perf_counter`` reading when the process began
    importing.  ``setup_s`` is the median over this process and fresh
    probe processes of the time from there to a set-up workload.
    Returns the workload's record: metrics with units and sample counts,
    the deterministic outputs with their digest, and the op tallies.
    """
    if started is None:
        started = time.perf_counter()
    run = Run()
    with _workdir(name) as workdir:
        module, ctx, own_s = _set_up(name, seed, tiny, started, workdir)
        setups = [own_s] + _probe_processes(name, seed, tiny)
        run.metric("setup_s", statistics.median(setups), "s", len(setups))
        module.measure(ctx, seconds, run)
        if "peak_rss_mb" not in run.metrics:
            run.metric("peak_rss_mb", peak_rss_mb(), "MB")
        if trace:
            module.traced(ctx, run)
    run.outputs["outputs_digest"] = run._digest.hexdigest()
    for value in run.metrics.values():
        if not math.isfinite(value["value"]):
            raise RuntimeError(f"{name}: non-finite metric {value}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "tiny": tiny,
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
        "metrics": run.metrics,
        "outputs": run.outputs,
    }
