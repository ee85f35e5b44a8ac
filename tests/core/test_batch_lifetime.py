"""Lifetime, sharing and work counts of stacked model batches.

A batch (:class:`BatchSpeedModels`) is shared through a weak cache keyed
by its model objects: it can be found while some solve state, result or
caller holds it, and it is freed with its last holder.  These tests pin
both halves — a plan that nobody holds any more leaves nothing behind,
and a plan that is held shares one stacking between its solve, rounding
and simulation — plus the number of stackings a flat plan and a
hierarchical solve make, and the cache under concurrent use.  The drift
decisions' counts live in ``tests/runtime/test_drift_work_counts.py``.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import batch as batch_module
from repro.core.batch import BatchSpeedModels, batch_models, cached_batch
from repro.core.integer import round_partition
from repro.core.solver import Solver
from repro.core.speed_function import SpeedFunction
from repro.runtime.panel_loop import simulate_spmd_run

N = 300  # the matrix is N x N blocks
PANELS = 10


def _ramped(peak: float, half: float) -> SpeedFunction:
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes])


def _fresh_models(seed: int, devices: int) -> list[SpeedFunction]:
    rng = np.random.default_rng(seed)
    i = np.arange(devices)
    peaks = 20.0 * 1.05 ** (i % 100) * rng.uniform(0.9, 1.1, devices)
    halves = (10.0 + (7 * i) % 90) * rng.uniform(0.9, 1.1, devices)
    return [_ramped(float(p), float(h)) for p, h in zip(peaks, halves)]


def _plan(models):
    """solve -> round -> simulate, the flat plan of ``cluster_plan``."""
    result = Solver().solve(models, float(N * N))
    blocks = round_partition(models, list(result.allocations), N * N)
    sim = simulate_spmd_run(models, blocks, PANELS)
    return result, blocks, sim


def _live_batches() -> int:
    gc.collect()
    return sum(isinstance(o, BatchSpeedModels) for o in gc.get_objects())


def _counting_stacks(monkeypatch) -> list[int]:
    """Patch :func:`_stack_rows`; returns ``[calls, rows stacked]``."""
    counts = [0, 0]
    original = batch_module._stack_rows

    def counted(fns, out, at):
        counts[0] += 1
        counts[1] += len(fns)
        return original(fns, out, at)

    monkeypatch.setattr(batch_module, "_stack_rows", counted)
    return counts


# ------------------------------------------------------------- liveness
def test_a_dropped_plan_frees_its_batch():
    models = _fresh_models(seed=1, devices=2000)
    result, blocks, sim = _plan(models)
    ref = weakref.ref(result.warm.batch)
    del result, blocks, sim
    gc.collect()
    assert ref() is None
    assert tuple(models) not in batch_module._batch_cache
    assert cached_batch(models) is None


def test_consecutive_fresh_plans_leave_no_batches_behind():
    live = []
    for seed in range(8):
        models = _fresh_models(seed=seed, devices=200)
        result, _, _ = _plan(models)
        Solver().resolve(result, changed_models={0: _ramped(30.0, 20.0)})
        del models, result
        live.append(_live_batches())
    assert len(set(live)) == 1, live


def test_a_held_result_shares_its_batch():
    models = _fresh_models(seed=2, devices=50)
    result = Solver().solve(models, float(N * N))
    assert cached_batch(models) is result.warm.batch
    assert batch_models(models) is result.warm.batch
    resolved = Solver().resolve(result, changed_models={3: _ramped(25.0, 40.0)})
    batch = resolved.warm.batch
    assert cached_batch(batch.fns) is batch


# ----------------------------------------------------------- work counts
def test_a_flat_plan_stacks_once(monkeypatch):
    models = _fresh_models(seed=3, devices=500)
    counts = _counting_stacks(monkeypatch)
    _plan(models)
    assert counts == [1, 500]


def test_a_hierarchical_solve_stacks_once_per_node_build(monkeypatch):
    types = 3
    node_types = [
        [_ramped(15.0 + 3 * k + 0.8 * j, 12.0 + 5 * j) for j in range(4)]
        for k in range(types)
    ]
    cluster = [node_types[k % types] for k in range(40)]
    counts = _counting_stacks(monkeypatch)
    result = Solver(hierarchy=True, aggregate_samples=8).solve(cluster, N * N)
    assert sum(result.allocations) == N * N
    assert counts[0] <= types + 2


# ------------------------------------------------------------ concurrency
def test_concurrent_lookups_return_the_queried_models():
    shared = tuple(_fresh_models(seed=4, devices=3))
    errors: list[Exception] = []
    rounds = 200

    def worker(seed: int) -> None:
        try:
            for k in range(rounds):
                fresh = tuple(_fresh_models(seed=seed * rounds + k, devices=2))
                for key in (shared, fresh):
                    batch = batch_models(key)
                    assert batch.fns == key
                    found = cached_batch(key)
                    # another thread may own the shared entry and drop it
                    assert found is None or found.fns == key
                    if key is fresh:
                        assert found is batch
                    del batch, found
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


@pytest.mark.parametrize("bad", [[[1.0]], [{}]])
def test_unhashable_models_are_never_found(bad):
    assert cached_batch(bad) is None
