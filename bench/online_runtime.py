"""online_runtime: the simulated runtime reacting to a drifting and failing node.

Closed loop, one caller, on the paper's node (``ig_icl_node``) running
the hybrid matrix multiplication, with its models built in set-up.  One
op (an episode) runs the drift controller on a GTX680 throttle ramp with
jitter, the same controller on measurement noise alone, and drop
recovery with the GTX680 failing at half the fault-free makespan.  The
runtime layer dominates; the core is used the opposite way from
``cluster_plan``: hundreds of warm re-solves over a handful of devices,
so a change that speeds up large batches but taxes small calls shows
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.app.matmul import HybridMatMul
from repro.obs import Tracer
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.runtime.drift_control import run_with_drift_control
from repro.runtime.recovery import run_with_recovery
from repro.util.rng import RngStream

from bench.harness import Run, closed_loop, derive_seed, run_traced, timed
from bench.trace import layer_span

NAME = "online_runtime"

RAMP = "throttle:GTX680:t0=2,tau=10,floor=0.45; jitter:*:sigma=0.01"
DROPPED = "GeForce GTX680"
NOISE_SIGMA = 0.01


@dataclass(frozen=True)
class Sizes:
    n: int  # the matrix is n x n blocks, one panel per block column
    traced_episodes: int
    min_ops: int


FULL = Sizes(n=80, traced_episodes=15, min_ops=20)
TINY = Sizes(n=24, traced_episodes=2, min_ops=1)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    app: HybridMatMul
    drop: DeviceDrop


def setup(seed: int, sizes: Sizes, workdir: Path) -> Context:
    n = sizes.n
    app = HybridMatMul(ig_icl_node(), seed=seed, noise_sigma=NOISE_SIGMA)
    app.build_models(max_blocks=n * n, cpu_points=6, gpu_points=8, adaptive=False)
    fault_free_s = run_with_recovery(app, n, drops=()).fault_free_time_s
    return Context(seed, sizes, app, DeviceDrop(time_s=0.5 * fault_free_s, device=DROPPED))


def _noise(seed: int) -> NoiseModel:
    return NoiseModel(RngStream(seed).child("panel-noise"), sigma=NOISE_SIGMA)


def _episode(ctx: Context, seed: int, tracer: Tracer | None):
    app, n = ctx.app, ctx.sizes.n
    drift_seed = derive_seed(seed, "drift")
    with layer_span(tracer, "bench.drift_ramp", "runtime"):
        ramp = run_with_drift_control(
            app,
            n,
            DriftModel.from_spec(RAMP, seed=drift_seed),
            mode="controller",
            noise=_noise(derive_seed(seed, "ramp")),
        )
    with layer_span(tracer, "bench.drift_quiet", "runtime"):
        quiet = run_with_drift_control(
            app,
            n,
            DriftModel.from_spec("", seed=drift_seed),
            mode="controller",
            noise=_noise(derive_seed(seed, "quiet")),
        )
    with layer_span(tracer, "bench.recovery", "runtime"):
        recovered = run_with_recovery(app, n, (ctx.drop,))
    return ramp, quiet, recovered


def _run_episode(ctx: Context, run: Run, tag, op_s: list[float], tracer=None):
    """One episode, checked; returns its digestable output or None."""
    n = ctx.sizes.n
    try:
        (ramp, quiet, recovered), elapsed = timed(
            _episode, ctx, derive_seed(ctx.seed, NAME, tag), tracer, tracer=tracer
        )
    except Exception as exc:  # a run raised: the op failed
        run.fail(f"episode {tag}: {type(exc).__name__}: {exc}")
        return None
    run.check(
        {
            "final allocations sum to n^2": sum(ramp.final_unit_allocations) == n * n
            and sum(quiet.final_unit_allocations) == n * n
            and sum(recovered.degraded_unit_allocations) == n * n,
            "no commit or detection on noise": quiet.commits == 0
            and quiet.detections == 0,
            "the ramp commits": ramp.commits >= 1,
        },
        f"episode {tag}",
    )
    op_s.append(elapsed)
    return {
        "ramp": [ramp.total_time_s, ramp.final_unit_allocations, ramp.commits],
        "quiet": [quiet.total_time_s, quiet.final_unit_allocations],
        "recovery": [recovered.recovery_time_s, recovered.degraded_unit_allocations],
        "makespan_s": ramp.total_time_s + quiet.total_time_s + recovered.recovery_time_s,
    }


def measure(ctx: Context, seconds: float, run: Run) -> None:
    makespan = 0.0
    episode_s: list[float] = []

    def step(i: int) -> None:
        nonlocal makespan
        output = _run_episode(ctx, run, i, episode_s)
        if output is not None and i < ctx.sizes.min_ops:
            run.digest(output)
            makespan += output["makespan_s"]

    closed_loop(run, step, seconds=seconds, min_ops=ctx.sizes.min_ops)
    run.outputs["sim_makespan_s"] = makespan
    run.op_latencies(episode_s)


def traced(ctx: Context, run: Run) -> None:
    op_s: list[float] = []

    def body(tracer: Tracer) -> None:
        for i in range(ctx.sizes.traced_episodes):
            _run_episode(ctx, run, f"traced{i}", op_s, tracer)

    tracer = run_traced(body)
    if op_s:
        run.layers(tracer.roots, tracer.metrics, op_s)
