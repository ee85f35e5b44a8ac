"""Microbenchmarks of the partitioning algorithms themselves.

The FPM partitioner runs a bisection whose every step queries each model's
inverse time function — these benches pin its cost and scaling so a
performance regression in the core algorithm is caught independently of
the (much heavier) experiment pipelines.
"""

import pytest

from repro.core.batch import batch_models
from repro.core.geometry import column_based_partition
from repro.core.integer import round_partition
from repro.core.partition import balance_report, partition_fpm
from repro.core.speed_function import SpeedFunction


def ramped(peak, half):
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(
        sizes, [peak * s / (s + half) for s in sizes]
    )


@pytest.fixture(scope="module")
def heterogeneous_models():
    """100 devices spanning two orders of magnitude in speed.

    The fixture holds the models' stacked batch, which lives only while
    held, so the benches below time solves and rounding, not stacking.
    """
    models = [
        ramped(20.0 * (1.05**i), 10.0 + (7 * i) % 90) for i in range(100)
    ]
    _held = batch_models(models)
    yield models


def test_partition_fpm_100_devices(benchmark, heterogeneous_models):
    total = 1e6
    alloc = benchmark(partition_fpm, heterogeneous_models, total)
    assert sum(alloc) == pytest.approx(total, rel=1e-6)
    assert balance_report(heterogeneous_models, alloc).imbalance < 1.01


def test_integer_rounding_100_devices(benchmark, heterogeneous_models):
    total = 100_000
    continuous = partition_fpm(heterogeneous_models, float(total))
    alloc = benchmark(
        round_partition, heterogeneous_models, continuous, total
    )
    assert sum(alloc) == total


def test_column_geometry_100_rectangles(benchmark):
    n = 100
    allocs = [100] * 100  # 100 processors, 100 blocks each on a 100x100 grid
    partition = benchmark(column_based_partition, allocs, n)
    partition.validate_tiling()


def test_partition_scaling_is_subquadratic(heterogeneous_models):
    """Doubling the device count far less than quadruples the cost."""
    import time

    def cost(p):
        models = heterogeneous_models[:p]
        start = time.perf_counter()
        for _ in range(3):
            partition_fpm(models, 1e5)
        return (time.perf_counter() - start) / 3

    small, large = cost(25), cost(100)
    assert large < 16 * small  # 4x devices, allow 16x before alarming


# ---------------------------------------------------------------------------
# cluster scale: the vectorized solver and the two-level hierarchy
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cluster_models(heterogeneous_models):
    """10,000 devices (the 100-device zoo tiled with varied half-sizes),
    with their stacked batch held like :func:`heterogeneous_models`."""
    models = [
        ramped(20.0 * (1.05 ** (i % 100)), 10.0 + (7 * i) % 90)
        for i in range(10_000)
    ]
    _held = batch_models(models)
    yield models


def test_partition_fpm_10000_devices(benchmark, cluster_models):
    total = 1e7
    alloc = benchmark(partition_fpm, cluster_models, total)
    assert sum(alloc) == pytest.approx(total, rel=1e-6)
    benchmark.extra_info["devices"] = len(cluster_models)


def test_hierarchical_1000_nodes(benchmark):
    """1000-node x 10-device cluster; 4 distinct node builds."""
    from repro.core.hierarchical import hierarchical_partition

    node_types = [
        [ramped(15.0 + 3 * k + 0.8 * j, 12.0 + 5 * j) for j in range(10)]
        for k in range(4)
    ]
    cluster = [node_types[i % 4] for i in range(1000)]
    total = 1_000_000
    tree = benchmark(
        hierarchical_partition, cluster, total, aggregate_samples=16
    )
    assert sum(tree.node_allocations) == total
    assert sum(tree.flat) == total
    benchmark.extra_info["nodes"] = len(cluster)
    benchmark.extra_info["units"] = 10 * len(cluster)


def test_vectorized_solver_speedup_gate(heterogeneous_models):
    """The batch solver must hold >= 10x over its scalar oracle at p=100.

    Both paths share the Illinois driver and produce bit-identical
    allocations (tests/core/test_batch_identity.py); this gate pins the
    *reason* the batch path exists.  The scalar oracle is the test
    fixture in tests/oracles/partition.py.  Best-of-5 timings keep CI
    noise out of the ratio.
    """
    import time

    from tests.oracles.partition import partition_fpm_scalar

    total = 1e6
    # the fixture holds the stacked batch; warm the scalar path's
    # per-model rows too, so both paths time pure solves
    partition_fpm(heterogeneous_models, total)
    partition_fpm_scalar(heterogeneous_models, total)

    def best_of(fn, reps=5):
        best = float("inf")
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        return best

    batch = best_of(lambda: partition_fpm(heterogeneous_models, total))
    scalar = best_of(lambda: partition_fpm_scalar(heterogeneous_models, total))
    assert scalar / batch >= 10.0, (
        f"vectorized solver speedup degraded: {scalar / batch:.1f}x "
        f"(batch {batch * 1e6:.0f} us, scalar {scalar * 1e6:.0f} us)"
    )
