"""Bit-identity of the vectorized FPM solver against its scalar oracle.

The cluster-scale solver (:func:`repro.core.partition.partition_fpm`)
evaluates every model's allocation in one NumPy sweep per Illinois
iteration; the oracle ``partition_fpm_scalar`` in
``tests/oracles/partition.py`` walks the same segment tables one model
at a time through the shared driver.  The contract is *bit-identity* —
not closeness — because both paths take the same branch decisions on
the same floats.  Searched with hypothesis over random model sets, and
pinned at 2/100/10000 devices with a fixed seed so a kernel change that
shifts any bit fails loudly.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.hierarchical import hierarchical_partition
from repro.core.partition import partition_fpm, partition_fpm_many
from repro.core.speed_function import SpeedFunction, SpeedSample

from tests.core.test_partition_properties import (
    partition_problem,
    strict_speed_function,
)
from tests.oracles.partition import partition_fpm_scalar


# ---------------------------------------------------------------------------
# hypothesis: identities the vectorization must preserve
# ---------------------------------------------------------------------------


@pytest.mark.property
@given(partition_problem())
def test_batch_equals_scalar_bitwise(problem):
    """Vectorized and per-model solves agree on every bit."""
    fns, total = problem
    assert partition_fpm(fns, total) == partition_fpm_scalar(fns, total)


@pytest.mark.property
@given(
    partition_problem(),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=4),
)
def test_many_rows_equal_single_solves_bitwise(problem, fractions):
    """Each multi-target row is exactly the corresponding single solve."""
    fns, total = problem
    totals = [f * total for f in fractions]
    rows = partition_fpm_many(fns, totals)
    for t, row in zip(totals, rows):
        assert list(row) == partition_fpm(fns, t)


@pytest.mark.property
@given(
    partition_problem(),
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=1, max_size=4),
)
def test_many_rows_are_valid_allocations(problem, fractions):
    fns, totals = problem[0], [f * problem[1] for f in fractions]
    for t, row in zip(totals, partition_fpm_many(fns, totals)):
        assert all(a >= 0.0 for a in row)
        assert math.isclose(sum(row), t, rel_tol=1e-6)
        for fn, a in zip(fns, row):
            if fn.bounded:
                assert a <= fn.max_size * (1 + 1e-9)


@pytest.mark.property
@given(
    units=st.lists(
        strict_speed_function(bounded=False), min_size=1, max_size=4
    ),
    nodes=st.integers(min_value=1, max_value=4),
    per_node=st.integers(min_value=10, max_value=400),
)
# The 2-unit solve stops on bracket width with the fast unit's time curve
# nearly flat; an even spread of the residual moved the slow unit by 3e-7.
@example(
    units=[
        SpeedFunction.from_points([1.0], [0.6666666666666666]),
        SpeedFunction.from_points(
            [1.0, 2.0, 39.0, 50.0, 75.0],
            [
                32.0,
                42.666666666666664,
                739.5555555555555,
                474.0740740740741,
                355.55555555555554,
            ],
        ),
    ],
    nodes=2,
    per_node=18,
)
def test_hierarchy_fanout_matches_flat_solve_on_homogeneous_nodes(
    units, nodes, per_node
):
    """On identical nodes the two-level solve collapses to the flat one.

    Every node must receive exactly ``total / nodes`` blocks, every node's
    fan-out must be the *same* tuple (the dedup guarantees one inner
    solve), and the flat equal-finish-time solve over all units must tile
    into per-node copies of the single-node solution.
    """
    total = per_node * nodes
    tree = hierarchical_partition([list(units)] * nodes, total)
    assert tree.node_allocations == (per_node,) * nodes
    assert len(set(tree.unit_allocations)) == 1
    assert sum(tree.flat) == total

    flat = partition_fpm([*units] * nodes, float(total))
    one_node = partition_fpm(units, float(per_node))
    for i in range(nodes):
        for j, expected in enumerate(one_node):
            assert math.isclose(
                flat[i * len(units) + j], expected, rel_tol=1e-9, abs_tol=1e-9
            )


# ---------------------------------------------------------------------------
# pinned regression: fixed seed, fixed digests
# ---------------------------------------------------------------------------


def _pinned_models(count: int, seed: int) -> list[SpeedFunction]:
    """Deterministic heterogeneous model zoo (mixed bounded/unbounded)."""
    rng = random.Random(seed)
    models = []
    for _ in range(count):
        points = rng.randint(1, 6)
        sizes = sorted({rng.uniform(1.0, 500.0) for _ in range(points)})
        t = rng.uniform(0.01, 10.0)
        samples = []
        for x in sizes:
            samples.append(SpeedSample(size=x, speed=x / t))
            t *= rng.uniform(1.05, 3.0)
        models.append(SpeedFunction(samples, bounded=rng.random() < 0.4))
    return models


def _pinned_total(models: list[SpeedFunction]) -> float:
    if all(fn.bounded for fn in models):
        return 0.5 * sum(fn.max_size for fn in models)
    return 37.5 * len(models)


def _digest(allocations) -> str:
    payload = " ".join(float(a).hex() for a in allocations)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


#: sha256 (truncated) over the hex bit patterns of the allocations at
#: seed 20260808 — any change here is a behaviour change of the solver
#: and must be called out in the commit that causes it.
PINNED = {
    2: "81812e6d7311b64c",
    100: "e6dcb1162d2670a7",
    10000: "0621aff4eb3b64d4",
}


@pytest.mark.parametrize("count", sorted(PINNED))
def test_pinned_allocations_are_stable(count):
    models = _pinned_models(count, seed=20260808)
    total = _pinned_total(models)
    allocs = partition_fpm(models, total)
    assert math.isclose(sum(allocs), total, rel_tol=1e-9)
    assert _digest(allocs) == PINNED[count]
    if count <= 100:  # the scalar oracle is O(devices) per iteration
        assert allocs == partition_fpm_scalar(models, total)
