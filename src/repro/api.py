"""The stable high-level API: build models, solve partitions, run experiments.

These entry points cover the library's everyday uses without touching
the internal layers; all arguments are keyword-only so call sites stay
readable and future knobs can be added without breaking anyone:

* :func:`build_models` — benchmark a node and return its FPMs (cached
  via the active store when one is installed);
* :class:`Solver` / :class:`SolverOptions` / :class:`SolveResult` — the
  unified partitioning entry point: one options record, one ``solve``
  call for flat and hierarchical cluster partitioning (re-exported from
  :mod:`repro.core.solver`);
* :func:`partition_node` — the service-shaped composition: a platform
  spec plus a problem size in, a named allocation out;
* :func:`run_experiment` — run one registered table/figure/ablation;
* :func:`load_cached_result` — peek at a frozen result without running;
* :func:`run_report` — the full paper-vs-measured report, optionally
  parallel and store-backed.

Async callers (the partition service, notebooks driving many solves)
use the ``*_async`` variants, which run the synchronous pipeline on a
worker thread via :func:`asyncio.to_thread`.  ``to_thread`` copies the
calling context, and the active store binding is context-local
(:mod:`repro.store`), so a store installed with
:func:`repro.store.use_store` around the ``await`` is seen by the
solve — the entry points are async-*safe*, not just async-flavoured.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.app.matmul import HybridMatMul
from repro.core.fpm import FunctionalPerformanceModel
from repro.core.solver import SolveResult, Solver, SolverOptions
from repro.experiments import orchestrator
from repro.experiments.common import ExperimentConfig
from repro.platform.presets import ig_icl_node
from repro.platform.spec import NodeSpec
from repro.store import ResultStore

__all__ = [
    "Solver",
    "SolverOptions",
    "SolveResult",
    "build_models",
    "build_models_async",
    "partition_node",
    "partition_node_async",
    "run_experiment",
    "load_cached_result",
    "run_report",
]


def build_models(
    *,
    node: NodeSpec | None = None,
    seed: int = 42,
    noise_sigma: float = 0.02,
    gpu_version: int = 3,
    max_blocks: float = 6500.0,
    cpu_points: int = 12,
    gpu_points: int = 16,
    adaptive: bool = True,
) -> dict[str, FunctionalPerformanceModel]:
    """Benchmark every compute unit of a node and build its FPMs.

    Defaults reproduce the paper's hybrid node; install a store
    (:func:`repro.store.use_store`) to make repeated builds warm.
    """
    app = HybridMatMul(
        node or ig_icl_node(),
        seed=seed,
        noise_sigma=noise_sigma,
        gpu_version=gpu_version,
    )
    return app.build_models(
        max_blocks=max_blocks,
        cpu_points=cpu_points,
        gpu_points=gpu_points,
        adaptive=adaptive,
    )


def partition_node(
    *,
    node: NodeSpec | None = None,
    total_blocks: float,
    strategy: str = "fpm",
    seed: int = 42,
    noise_sigma: float = 0.02,
    gpu_version: int = 3,
    max_blocks: float = 6500.0,
    cpu_points: int = 12,
    gpu_points: int = 16,
    adaptive: bool = True,
    tolerance: float | None = None,
    max_iters: int | None = None,
) -> dict[str, float]:
    """Build a node's FPMs and split ``total_blocks`` across its units.

    The one-call composition the partition service exposes over HTTP:
    platform spec + problem size in, ``{unit name: allocation}`` out,
    with units in sorted-name order (the order :func:`build_models`
    reports).  Model building goes through the active store when one is
    installed, so repeated calls for one spec are warm.  ``tolerance``
    and ``max_iters`` tune the FPM solver (defaults when ``None``).
    """
    models = build_models(
        node=node,
        seed=seed,
        noise_sigma=noise_sigma,
        gpu_version=gpu_version,
        max_blocks=max_blocks,
        cpu_points=cpu_points,
        gpu_points=gpu_points,
        adaptive=adaptive,
    )
    solver_kwargs: dict[str, Any] = {"strategy": strategy}
    if tolerance is not None:
        solver_kwargs["tolerance"] = tolerance
    if max_iters is not None:
        solver_kwargs["max_iters"] = max_iters
    names = sorted(models)
    result = Solver(**solver_kwargs).solve(
        [models[name] for name in names], total_blocks
    )
    return result.as_dict(names)


async def build_models_async(**kwargs: Any) -> dict[str, FunctionalPerformanceModel]:
    """:func:`build_models` on a worker thread (context — store — carried)."""
    return await asyncio.to_thread(lambda: build_models(**kwargs))


async def partition_node_async(**kwargs: Any) -> dict[str, float]:
    """:func:`partition_node` on a worker thread (context — store — carried)."""
    return await asyncio.to_thread(lambda: partition_node(**kwargs))


def run_experiment(
    name: str,
    *,
    config: ExperimentConfig | None = None,
    store: ResultStore | None = None,
) -> Any:
    """Run one registered experiment by name; see ``repro list-experiments``."""
    return orchestrator.run_experiment(
        name, config or ExperimentConfig(), store=store
    )


def load_cached_result(
    name: str,
    *,
    config: ExperimentConfig | None = None,
    store: ResultStore | None = None,
) -> Any | None:
    """A previous identical run's frozen result, or None on miss."""
    return orchestrator.load_cached_result(
        name, config or ExperimentConfig(), store=store
    )


def run_report(
    *,
    config: ExperimentConfig | None = None,
    jobs: int = 1,
    store: ResultStore | None = None,
) -> str:
    """The complete text report (``repro report``), orchestrated."""
    return orchestrator.run_full_report(
        config or ExperimentConfig(), jobs=jobs, store=store
    )
