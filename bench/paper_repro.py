"""paper_repro: what a reader of the paper runs.

Closed loop, one caller.  One op is a pass over every registered
experiment (the seven figures and tables plus the ablations) at full
resolution, in process, on a fresh on-disk store, followed by the
report's formatting and shape checks.  Each pass has its own seed.
Measurement, runtime simulation and the store dominate; the service is
never reached.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import repro.experiments.ablations  # noqa: F401  (registers the ablations)
from repro.experiments import report
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import REPORT_EXPERIMENTS, run_experiment
from repro.experiments.registry import experiment_names, get_experiment
from repro.obs import Tracer

from bench.harness import Run, TimedStore, closed_loop, derive_seed, run_traced, timed
from bench.trace import layer_span

NAME = "paper_repro"

#: ``report.shape_checks`` takes the report results in this order.
_CHECK_ORDER = ("fig2", "fig3", "fig5", "table2", "table3", "fig6", "fig7")


@dataclass(frozen=True)
class Sizes:
    fast: bool
    ablations: bool
    min_ops: int


FULL = Sizes(fast=False, ablations=True, min_ops=3)
TINY = Sizes(fast=True, ablations=False, min_ops=1)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    workdir: Path
    names: tuple[str, ...]
    stores: list[TimedStore]


def setup(seed: int, sizes: Sizes, workdir: Path) -> Context:
    names = experiment_names() if sizes.ablations else REPORT_EXPERIMENTS
    return Context(seed, sizes, workdir, tuple(names), [])


def _one_pass(ctx: Context, store: TimedStore, seed: int, tracer: Tracer | None = None):
    config = ExperimentConfig(seed=seed, fast=ctx.sizes.fast)
    results = {}
    for name in ctx.names:
        with layer_span(tracer, f"bench.run.{name}", "experiments"):
            results[name] = run_experiment(name, config, store=store)
    with layer_span(tracer, "bench.format", "experiments"):
        sections = [get_experiment(name).format_result(results[name]) for name in ctx.names]
    with layer_span(tracer, "bench.shape_checks", "experiments"):
        checks = report.shape_checks(*(results[name] for name in _CHECK_ORDER))
    return sections, checks


def _pass(ctx: Context, run: Run, tag: object, tracer: Tracer | None = None):
    """One pass on a fresh store; returns (wall seconds, output) or None on error."""
    store = TimedStore(tempfile.mkdtemp(dir=ctx.workdir))
    ctx.stores.append(store)
    seed = derive_seed(ctx.seed, NAME, tag)
    try:
        (sections, checks), elapsed = timed(
            _one_pass, ctx, store, seed, tracer, tracer=tracer
        )
    except Exception as exc:  # an experiment raised: the op failed
        run.fail(f"pass {tag}: {type(exc).__name__}: {exc}")
        return None
    finally:
        shutil.rmtree(store.root, ignore_errors=True)
    run.check({}, f"pass {tag}")
    return elapsed, {
        "sections": sections,
        "shape_checks": [check.passed for check in checks],
    }


def measure(ctx: Context, seconds: float, run: Run) -> None:
    shape_failed = 0
    pass_s: list[float] = []

    def step(i: int) -> None:
        nonlocal shape_failed
        done = _pass(ctx, run, i)
        if done is None:
            return
        elapsed, output = done
        pass_s.append(elapsed)
        if i < ctx.sizes.min_ops:
            run.digest(output)
            shape_failed += output["shape_checks"].count(False)

    closed_loop(run, step, seconds=seconds, min_ops=ctx.sizes.min_ops)
    run.outputs["shape_checks_failed"] = shape_failed
    run.outputs["experiments"] = len(ctx.names)
    run.op_latencies(pass_s)
    gets = [s for store in ctx.stores for s in store.get_s]
    puts = [s for store in ctx.stores for s in store.put_s]
    run.latency("store.get_ms", gets)
    run.latency("store.put_ms", puts)


def traced(ctx: Context, run: Run) -> None:
    op_s: list[float] = []

    def body(tracer: Tracer) -> None:
        done = _pass(ctx, run, "traced", tracer)
        if done is not None:
            op_s.append(done[0])

    tracer = run_traced(body)
    if op_s:
        run.layers(tracer.roots, tracer.metrics, op_s)
