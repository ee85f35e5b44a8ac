"""cluster_plan: planning one large heterogeneous run, from models to a simulated makespan.

Closed loop, one caller; no measurement, store or service.  Each plan
gets 10,000 fresh ramped speed functions (the zoo of the legacy
``benchmarks/`` suite, with seeded jitter), generated untimed, so the
solver's per-model caches never answer for it.  One op (``p50_ms``) is
``Solver.solve`` -> ``round_partition`` -> ``column_based_partition`` ->
``simulate_spmd_run``.  Each plan is followed by warm ``Solver.resolve``
calls, each changing a few models (``resolve_p50_ms``), and one
two-level cluster solve over 1000 nodes (``hier_p50_ms``).  The core
layer dominates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.geometry import column_based_partition
from repro.core.integer import round_partition
from repro.core.solver import Solver
from repro.core.speed_function import SpeedFunction
from repro.obs import Tracer
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from repro.runtime.panel_loop import simulate_spmd_run

from bench.harness import Run, closed_loop, derive_seed, run_traced, timed
from bench.trace import layer_span

NAME = "cluster_plan"

#: Plans in the traced phase.
TRACED_PLANS = 3


@dataclass(frozen=True)
class Sizes:
    devices: int
    n: int  # the matrix is n x n blocks
    panels: int
    resolves: int
    changed: int  # models replaced per resolve
    nodes: int
    node_devices: int
    node_types: int
    min_ops: int


FULL = Sizes(
    devices=10_000, n=1000, panels=100, resolves=5, changed=5,
    nodes=1000, node_devices=10, node_types=4, min_ops=5,
)
TINY = Sizes(
    devices=200, n=40, panels=10, resolves=2, changed=2,
    nodes=20, node_devices=4, node_types=2, min_ops=1,
)


def ramped(peak: float, half: float) -> SpeedFunction:
    """A speed function ramping to ``peak`` with half speed at ``half`` blocks."""
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes])


@dataclass
class Plan:
    """One plan's inputs, all fresh objects."""

    models: list[SpeedFunction]
    changes: list[dict[int, SpeedFunction]]
    cluster: list[list[SpeedFunction]]


def make_plan(seed: int, sizes: Sizes) -> Plan:
    rng = np.random.default_rng(seed)
    i = np.arange(sizes.devices)
    peaks = 20.0 * 1.05 ** (i % 100) * rng.uniform(0.9, 1.1, sizes.devices)
    halves = (10.0 + (7 * i) % 90) * rng.uniform(0.9, 1.1, sizes.devices)
    models = [ramped(float(p), float(h)) for p, h in zip(peaks, halves)]
    changes = []
    for _ in range(sizes.resolves):
        picked = rng.choice(sizes.devices, size=sizes.changed, replace=False)
        changes.append(
            {
                int(k): ramped(float(peaks[k] * rng.uniform(0.8, 1.2)), float(halves[k]))
                for k in picked
            }
        )
    node_types = [
        [
            ramped(15.0 + 3 * k + 0.8 * j * rng.uniform(0.9, 1.1), 12.0 + 5 * j)
            for j in range(sizes.node_devices)
        ]
        for k in range(sizes.node_types)
    ]
    cluster = [node_types[k % sizes.node_types] for k in range(sizes.nodes)]
    return Plan(models, changes, cluster)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    solver: Solver
    hier_solver: Solver
    comm: SimulatedComm


def setup(seed: int, sizes: Sizes, workdir: Path) -> Context:
    return Context(
        seed,
        sizes,
        Solver(),
        Solver(hierarchy=True, aggregate_samples=16),
        SimulatedComm(sizes.devices, CommModel()),
    )


def _plan(ctx: Context, models, tracer: Tracer | None):
    """solve -> round -> geometry -> simulate; returns outputs and step times."""
    n = ctx.sizes.n
    marks = [time.perf_counter()]
    with layer_span(tracer, "bench.solve", "core"):
        result = ctx.solver.solve(models, float(n * n))
    marks.append(time.perf_counter())
    with layer_span(tracer, "bench.round", "core"):
        blocks = round_partition(models, list(result.allocations), n * n)
    marks.append(time.perf_counter())
    with layer_span(tracer, "bench.geometry", "core"):
        tiling = column_based_partition(blocks, n)
    marks.append(time.perf_counter())
    with layer_span(tracer, "bench.simulate", "runtime"):
        sim = simulate_spmd_run(models, blocks, ctx.sizes.panels, comm=ctx.comm)
    marks.append(time.perf_counter())
    steps = [b - a for a, b in zip(marks, marks[1:])]
    return result, blocks, tiling, sim, steps


def _resolve(ctx: Context, previous, changed, tracer: Tracer | None):
    with layer_span(tracer, "bench.resolve", "core"):
        return ctx.solver.resolve(previous, changed_models=changed)


def _hier(ctx: Context, cluster, tracer: Tracer | None):
    with layer_span(tracer, "bench.hierarchical", "core"):
        return ctx.hier_solver.solve(cluster, ctx.sizes.n * ctx.sizes.n)


@dataclass
class Timings:
    plan_s: list[float] = field(default_factory=list)
    resolve_s: list[float] = field(default_factory=list)
    hier_s: list[float] = field(default_factory=list)
    steps_s: list[list[float]] = field(default_factory=list)


def _iteration(ctx: Context, run: Run, tag, timings: Timings, tracer=None, check_cold=False):
    """One plan with its resolves and hierarchy; returns the digestable output."""
    sizes = ctx.sizes
    total = sizes.n * sizes.n
    plan = make_plan(derive_seed(ctx.seed, NAME, tag), sizes)
    try:
        (result, blocks, tiling, sim, steps), plan_s = timed(
            _plan, ctx, plan.models, tracer, tracer=tracer
        )
        tiling.validate_tiling()
        warm = result
        for changed in plan.changes:
            warm, resolve_s = timed(_resolve, ctx, warm, changed, tracer, tracer=tracer)
            timings.resolve_s.append(resolve_s)
        hier, hier_s = timed(_hier, ctx, plan.cluster, tracer, tracer=tracer)
    except Exception as exc:  # a step raised: the op failed
        run.fail(f"plan {tag}: {type(exc).__name__}: {exc}")
        return None
    checks = {
        "allocations sum to N": abs(sum(result.allocations) - total) <= 1e-6 * total,
        "blocks sum to n^2": sum(blocks) == total,
        "hierarchy sums to n^2": sum(hier.hierarchy.node_allocations) == total
        and sum(hier.allocations) == total,
    }
    if check_cold:
        updated = list(plan.models)
        for changed in plan.changes:
            for k, model in changed.items():
                updated[k] = model
        cold = ctx.solver.solve(updated, float(total))
        checks["warm resolve equals cold solve"] = cold.allocations == warm.allocations
    run.check(checks, f"plan {tag}")
    timings.plan_s.append(plan_s)
    timings.hier_s.append(hier_s)
    timings.steps_s.append(steps)
    return {
        "allocations": result.allocations,
        "blocks": blocks,
        "makespan_s": sim.total_time_s,
        "resolved": warm.allocations,
        "node_allocations": hier.hierarchy.node_allocations,
    }


def measure(ctx: Context, seconds: float, run: Run) -> None:
    timings = Timings()
    makespan = 0.0

    def step(i: int) -> None:
        nonlocal makespan
        output = _iteration(ctx, run, i, timings, check_cold=i == 0)
        if output is not None and i < ctx.sizes.min_ops:
            run.digest(output)
            makespan += output["makespan_s"]

    closed_loop(run, step, seconds=seconds, min_ops=ctx.sizes.min_ops)
    run.outputs["sim_makespan_s"] = makespan
    run.op_latencies(timings.plan_s)
    run.latency("resolve_p50_ms", timings.resolve_s)
    run.latency("hier_p50_ms", timings.hier_s)
    for k, name in enumerate(("solve_ms", "round_ms", "geometry_ms")):
        run.latency(f"core.{name}", [s[k] for s in timings.steps_s])
    run.latency("runtime.sim_ms", [s[3] for s in timings.steps_s])


def traced(ctx: Context, run: Run) -> None:
    timings = Timings()

    def body(tracer: Tracer) -> None:
        for i in range(TRACED_PLANS):
            _iteration(ctx, run, f"traced{i}", timings, tracer)

    tracer = run_traced(body)
    if timings.plan_s:
        run.layers(
            tracer.roots,
            tracer.metrics,
            timings.plan_s + timings.resolve_s + timings.hier_s,
            primary_s=timings.plan_s,
        )
