"""Hierarchical (cluster-level) FPM partitioning.

The paper treats one hybrid node as a distributed-memory system; its
companion work (reference [6]) partitions *between* nodes of a
heterogeneous cluster using each node's own FPM.  This module provides the
two building blocks:

* :func:`aggregate_speed_function` — a whole node's speed function derived
  from its compute units' models: at total size ``x`` the node, internally
  balanced by FPM partitioning, finishes in ``T(x)``, so its aggregate
  speed is ``x / T(x)``.  This is the model a cluster-level partitioner
  sees.
* :func:`hierarchical_partition` — two-level partitioning: split the
  global workload between nodes using the aggregate models, then split
  each node's share between its units.

A useful invariant (tested): because FPM partitioning equalises times at
both levels, the hierarchical solution coincides with flat partitioning
over the union of all units — hierarchy changes the *cost* of modelling
and partitioning (linear in nodes instead of units), not the answer.

Cluster scale.  A 1000-node × 10-device solve never runs 1000 × 24
aggregate partitionings: every aggregation solves its whole sample grid
in one masked multi-target search
(:func:`repro.core.partition.partition_fpm_many`), nodes with identical
unit models (the common case — clusters are built from a few SKUs) share
one aggregate via a structural signature, and the per-node fan-out
deduplicates by ``(signature, share)`` so identical nodes with identical
shares are solved once.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fpm import as_speed_function
from repro.core.integer import round_partition
from repro.core.partition import (
    FPM_MAX_ITERS,
    FPM_TOLERANCE,
    partition_fpm_many,
    partition_fpm_with_state,
)
from repro.core.batch import BatchSpeedModels, batch_models
from repro.core.speed_function import SpeedFunction
from repro.obs import get_tracer
from repro.util.validation import check_positive, check_positive_int


def _signature(fns: list[SpeedFunction]) -> tuple:
    """A node's structural identity: its units' exact sample data.

    Nodes with equal signatures have equal aggregate models and receive
    equal solutions for equal shares, so both the aggregation and the
    fan-out deduplicate on this key.
    """
    return tuple(
        (fn.sizes.tobytes(), fn.speeds.tobytes(), fn.bounded) for fn in fns
    )


def aggregate_speed_function(
    models: list,
    sizes: list[float],
    *,
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> SpeedFunction:
    """A node's aggregate speed function from its units' models.

    For each sampled total ``x`` the units are balanced by FPM
    partitioning — all sample sizes in **one** multi-target solve — and
    the node's speed is the total divided by the common finish time.
    Bounded unit models bound the aggregate only when *every* unit is
    bounded.
    """
    if not models:
        raise ValueError("need at least one unit model")
    if not sizes:
        raise ValueError("need at least one sample size")
    fns = [as_speed_function(m) for m in models]
    capacity = sum(
        fn.max_size if fn.bounded else float("inf") for fn in fns
    )
    tracer = get_tracer()
    with tracer.span(
        "partition.aggregate",
        category="partition",
        units=len(fns),
        grid_points=len(sizes),
    ) as span:
        grid = []
        for x in sorted(set(sizes)):
            check_positive("sample size", x)
            if x > capacity:
                break
            grid.append(float(x))
        if not grid:
            raise ValueError(
                "no sample size fits the node's combined capacity"
            )
        # held across the solve, so it stacks these rows once
        batch = batch_models(fns)
        rows = partition_fpm_many(
            fns, grid, tolerance=tolerance, max_iters=max_iters
        )
        speeds = []
        for x, allocs in zip(grid, rows):
            times = batch.times_at(allocs)
            speeds.append(x / float(max(t for t, a in zip(times, allocs) if a > 0)))
        span.set_attr("samples", len(speeds))
        return SpeedFunction.from_points(grid, speeds, bounded=capacity != float("inf"))


@dataclass(frozen=True)
class HierarchicalPartition:
    """The two-level result: blocks per node, and per unit within nodes."""

    node_allocations: tuple[int, ...]
    unit_allocations: tuple[tuple[int, ...], ...]

    @property
    def flat(self) -> list[int]:
        """All unit allocations, in node order."""
        return [a for node in self.unit_allocations for a in node]

    def __post_init__(self) -> None:
        for node_alloc, units in zip(self.node_allocations, self.unit_allocations):
            if sum(units) != node_alloc:
                raise ValueError(
                    f"unit allocations {units} do not sum to the node's "
                    f"{node_alloc}"
                )


def hierarchical_partition(
    node_unit_models: list[list],
    total: int,
    aggregate_samples: int = 24,
    *,
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> HierarchicalPartition:
    """Two-level FPM partitioning of ``total`` blocks across a cluster.

    Parameters
    ----------
    node_unit_models:
        One list of unit models (FPMs / speed functions / constants) per
        node.
    total:
        Global workload in blocks.
    aggregate_samples:
        Sample count for each node's aggregate speed function; sampled
        geometrically up to ``total``.
    tolerance / max_iters:
        Convergence knobs forwarded to every FPM solve.
    """
    check_positive_int("total", total)
    check_positive_int("aggregate_samples", aggregate_samples)
    if not node_unit_models:
        raise ValueError("need at least one node")

    tracer = get_tracer()
    with tracer.span(
        "partition.hierarchical",
        category="partition",
        nodes=len(node_unit_models),
        total=total,
    ) as span:
        # geometric sample grid up to the full workload
        lo, hi = max(1.0, total / 512.0), float(total)
        if aggregate_samples == 1 or lo >= hi:
            grid = [hi]
        else:
            ratio = (hi / lo) ** (1.0 / (aggregate_samples - 1))
            grid = [lo * ratio**i for i in range(aggregate_samples)]

        # one aggregate per distinct node build, shared across the fleet;
        # one held batch per build serves its aggregation and every
        # fan-out solve and rounding below
        node_fns = [
            [as_speed_function(m) for m in units] for units in node_unit_models
        ]
        signatures = [_signature(fns) for fns in node_fns]
        aggregate_of: dict[tuple, SpeedFunction] = {}
        held: dict[tuple, BatchSpeedModels] = {}
        for fns, sig in zip(node_fns, signatures):
            if sig not in aggregate_of:
                held[sig] = batch_models(fns)
                aggregate_of[sig] = aggregate_speed_function(
                    fns, grid, tolerance=tolerance, max_iters=max_iters
                )
        span.set_attr("distinct_nodes", len(aggregate_of))

        node_models = [aggregate_of[sig] for sig in signatures]
        # the solve state keeps its batch alive for the rounding
        continuous, _warm = partition_fpm_with_state(
            node_models, float(total), tolerance=tolerance, max_iters=max_iters
        )
        node_allocs = round_partition(node_models, continuous, total)
        if tracer.enabled:
            for share in node_allocs:
                tracer.gauge("partition.hierarchical.node_blocks").set(share)

        # fan out each node's share to its units; identical nodes with
        # identical shares share one inner solve
        inner_of: dict[tuple, tuple[int, ...]] = {}
        unit_allocs = []
        for fns, sig, share in zip(node_fns, signatures, node_allocs):
            if share == 0:
                unit_allocs.append(tuple(0 for _ in fns))
                continue
            key = (sig, share)
            found = inner_of.get(key)
            if found is None:
                inner, _warm = partition_fpm_with_state(
                    fns, float(share), tolerance=tolerance, max_iters=max_iters
                )
                found = tuple(round_partition(fns, inner, share))
                inner_of[key] = found
            unit_allocs.append(found)
        span.set_attr("fanout_solves", len(inner_of))
        return HierarchicalPartition(
            node_allocations=tuple(node_allocs),
            unit_allocations=tuple(unit_allocs),
        )
