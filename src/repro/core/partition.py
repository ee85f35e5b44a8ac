"""Data partitioning algorithms (paper Sections II and VI).

Three algorithms are compared in the paper:

* **FPM-based** (:func:`partition_fpm`) — the Lastovetsky–Reddy algorithm:
  find allocations ``x_i`` with ``sum x_i = n`` such that all processors
  finish simultaneously, ``x_1 / s_1(x_1) = ... = x_p / s_p(x_p)``.  With
  increasing time functions the common finish time ``T`` is found by
  bisection; each processor's allocation is the inverse of its time
  function at ``T``.
* **Geometric formulation** (:func:`geometric_partition`) — the same
  solution derived as in [5]: a line through the origin of the (size,
  speed) plane intersects each speed curve at the points of equal execution
  time (the ray's inverse slope *is* that time); the ray is rotated until
  the intersection sizes sum to ``n``.  Kept as an independent code path
  and tested to agree with :func:`partition_fpm`.
* **CPM-based** (:func:`partition_cpm`) — workload proportional to constant
  speeds.
* **Homogeneous** (:func:`partition_homogeneous`) — the even split.

All partitioners work in continuous block units; integer allocation is the
job of :mod:`repro.core.integer`.

:func:`partition_fpm` has one implementation here.  Its per-model
reference form, which runs the same Illinois driver one model at a
time, is a test fixture in ``tests/oracles/partition.py``; the identity
suite holds the two bit-identical, so a change to the driver or its
kernels must update the oracle too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.batch import BatchSpeedModels, asum, batch_models
from repro.core.cpm import ConstantPerformanceModel
from repro.core.fpm import as_speed_function
from repro.core.speed_function import SpeedFunction
from repro.obs import get_tracer
from repro.util.validation import check_positive, check_positive_int

#: Relative tolerance on the total allocation reached by bisection.
_SUM_TOL = 1e-9

#: Default convergence knobs of the FPM solver: relative width of the
#: finish-time bracket at which the search stops, and the hard iteration
#: cap.  Exposed as keyword arguments (and through ``SolverOptions``) so
#: callers can trade accuracy for latency.
FPM_TOLERANCE = 1e-12
FPM_MAX_ITERS = 200

#: Iteration-count buckets for the ``partition.solver.iterations``
#: histogram — the Illinois search lands in the 8–32 range on real FPMs.
_ITER_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _normalise_models(models) -> list[SpeedFunction]:
    if not models:
        raise ValueError("need at least one performance model")
    return [as_speed_function(m) for m in models]


def _capacity(fn: SpeedFunction) -> float:
    return fn.max_size if fn.bounded else math.inf


def _check_capacity(caps, total: float) -> None:
    """Shared infeasibility check; ``asum`` so the oracle compares alike."""
    cap_sum = asum(caps)
    if cap_sum < total:
        raise ValueError(
            f"total workload {total} exceeds the combined model capacity "
            f"{cap_sum} (all models bounded)"
        )


def _solve_equal_time(
    evaluate,
    total: float,
    t_hi: float,
    *,
    tolerance: float,
    max_iters: int,
    trace=None,
):
    """Illinois search for the equal-finish-time ``T*`` of one workload.

    ``evaluate(T)`` returns the per-processor allocation vector at finish
    time ``T`` (any sequence; totalled through :func:`asum`).  Both
    :func:`partition_fpm` (batched evaluator) and the per-model reference
    partitioner in ``tests/oracles/partition.py`` run through this one
    driver, so every branch decision — bracketing, the false-position /
    bisection choice, the Illinois halving, convergence — is taken on
    bit-identical floats in both.  The residual test is a single
    comparison of the *summed* allocation, so tolerance semantics do not
    depend on the processor count.

    Returns ``(allocs, lower, iterations, evals, t_hi)`` where
    ``allocs`` is the evaluation at the bracket's upper end (the smallest
    examined ``T`` with enough work), matching the pre-vectorisation
    bisection contract, ``lower`` the evaluation at its lower end (None
    while that end is still ``T = 0``, where every allocation is zero)
    for :func:`_rescale`, and ``t_hi`` the upper finish time — the
    equal-time ray a warm re-solve can seed its bracket with.
    """
    t_lo = 0.0
    g_lo = 0.0 - total
    lower = None
    allocs = evaluate(t_hi)
    s_hi = asum(allocs)
    evals = 1
    while s_hi < total:
        t_hi *= 2.0
        if t_hi > 1e30:  # pragma: no cover - capacity check prevents this
            raise RuntimeError("failed to bracket the balanced finish time")
        allocs = evaluate(t_hi)
        s_hi = asum(allocs)
        evals += 1
    g_hi = s_hi - total

    iterations = 0
    side = 0
    for iteration in range(max_iters):
        if g_hi == 0.0 or t_hi - t_lo <= tolerance * max(1.0, t_hi):
            break
        gap = g_hi - g_lo
        if gap != 0.0:
            t_mid = t_hi - g_hi * (t_hi - t_lo) / gap
        else:  # pragma: no cover - g_lo < 0 <= g_hi keeps gap positive
            t_mid = 0.5 * (t_lo + t_hi)
        if not (t_lo < t_mid < t_hi):
            t_mid = 0.5 * (t_lo + t_hi)
        mid_allocs = evaluate(t_mid)
        g_mid = asum(mid_allocs) - total
        evals += 1
        iterations = iteration + 1
        if trace is not None:
            trace(iteration, mid_allocs)
        if g_mid >= 0.0:
            t_hi = t_mid
            g_hi = g_mid
            allocs = mid_allocs
            if side == 1:
                g_lo *= 0.5
            side = 1
        else:
            t_lo = t_mid
            g_lo = g_mid
            lower = mid_allocs
            if side == -1:
                g_hi *= 0.5
            side = -1
    return allocs, lower, iterations, evals, t_hi


def _record_solver_metrics(
    tracer, mode: str, processors: int, iterations: int, evals: int
) -> None:
    """Feed the ``partition.solver.*`` instruments (tracing enabled only)."""
    tracer.counter("partition.solver.solves").add(1)
    tracer.counter(f"partition.solver.solves.{mode}").add(1)
    tracer.counter("partition.solver.evaluations").add(evals)
    tracer.histogram("partition.solver.iterations", _ITER_BUCKETS).observe(iterations)
    tracer.gauge("partition.solver.processors").set(processors)


@dataclass(frozen=True)
class FpmSolveState:
    """Warm-start carrier of one flat FPM solve.

    Produced by :func:`partition_fpm_with_state` (and threaded through
    :class:`repro.core.solver.SolveResult`); consumed by
    :func:`resolve_fpm`, which reuses the stacked batch representation —
    rebuilding only the rows of changed models — and can seed the
    Illinois bracket with the previous equal-time ray.  Holding it keeps
    ``batch`` shared (:func:`repro.core.batch.batch_models`), so rounding
    or timing the solved models reuses its rows; callers may read the
    batch (its ``fns`` are the solved models) but never modify it.
    """

    batch: BatchSpeedModels
    total: float
    finish_time: float

    @property
    def processors(self) -> int:
        """Number of models the state covers."""
        return self.batch.count


#: Re-solve modes accepted by :func:`resolve_fpm`.  ``"exact"`` replays
#: the cold solve on the incrementally-updated batch (bit-identical to a
#: fresh :func:`partition_fpm`); ``"bracket"`` additionally seeds the
#: Illinois bracket with the previous equal-time ray — fewer
#: evaluations, allocations equal only to solver tolerance.
RESOLVE_MODES = ("exact", "bracket")


def partition_fpm(
    models,
    total: float,
    *,
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> list[float]:
    """FPM-based data partitioning: equal-finish-time allocations.

    The solver operates on **all models at once**: each Illinois
    iteration evaluates one batched ray-intersection
    (:meth:`BatchSpeedModels.allocations_at`) and one vectorized residual
    test, so a 10 000-device solve costs the same number of NumPy kernels
    as a 2-device solve.  Allocations are bit-identical to the
    per-model reference partitioner in ``tests/oracles/partition.py``.

    Parameters
    ----------
    models:
        Per-processor FPMs / speed functions / constants.
    total:
        Total workload in problem-size units (b x b blocks).
    tolerance:
        Relative finish-time bracket width at which the search stops.
    max_iters:
        Hard cap on solver iterations.

    Returns
    -------
    Continuous allocations summing to ``total`` (to numerical tolerance),
    each within its model's valid range.

    Raises
    ------
    ValueError
        If every model is bounded and the combined capacity cannot hold
        ``total``.
    """
    allocs, _ = partition_fpm_with_state(
        models, total, tolerance=tolerance, max_iters=max_iters
    )
    return allocs


def partition_fpm_with_state(
    models,
    total: float,
    *,
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> tuple[list[float], FpmSolveState]:
    """:func:`partition_fpm` plus the warm state for incremental re-solves."""
    check_positive("total", total)
    check_positive("tolerance", tolerance)
    check_positive_int("max_iters", max_iters)
    fns = _normalise_models(models)
    batch = batch_models(tuple(fns))
    caps = batch.caps
    _check_capacity(caps, total)

    tracer = get_tracer()
    with tracer.span(
        "partition.fpm", category="partition", processors=len(fns), total=total
    ) as span:
        t_hi = float(np.max(batch.times_at(np.minimum(total, caps)))) + 1e-12
        trace = None
        if tracer.enabled:

            def trace(iteration, mid_allocs):
                busy = batch.times_at(mid_allocs)[mid_allocs > 0.0]
                _trace_iteration(
                    tracer, "partition.fpm", iteration, asum(mid_allocs), busy, total
                )

        allocs, lower, iterations, evals, t_star = _solve_equal_time(
            batch.allocations_at,
            total,
            t_hi,
            tolerance=tolerance,
            max_iters=max_iters,
            trace=trace,
        )
        span.set_attr("iterations", iterations)
        if tracer.enabled:
            _record_solver_metrics(tracer, "vector", len(fns), iterations, evals)
        scaled = _rescale(allocs, total, caps, lower)
        state = FpmSolveState(
            batch=batch, total=float(total), finish_time=t_star
        )
        return scaled, state


def resolve_fpm(
    state: FpmSolveState,
    *,
    replacements=None,
    dropped=(),
    total: float | None = None,
    mode: str = "exact",
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> tuple[list[float], FpmSolveState]:
    """Warm-started incremental re-solve of a previous flat FPM solve.

    ``replacements`` maps model index to its new speed function (a
    refreshed online measurement, say); ``dropped`` lists failed model
    indices; ``total`` overrides the previous workload.  The previous
    batch representation is updated in place of rebuilt
    (:meth:`BatchSpeedModels.with_updates`), so only changed rows pay the
    stacking cost.

    In ``"exact"`` mode (default) the solve replays the cold seed and
    driver on the updated batch — allocations are **bit-identical** to
    :func:`partition_fpm` on the updated model list, which the property
    suite enforces.  ``"bracket"`` mode seeds the Illinois bracket with
    the previous equal-time ray instead: typically ~2 evaluations when
    the change is small, allocations equal to the cold solve only within
    solver tolerance.
    """
    if mode not in RESOLVE_MODES:
        raise ValueError(
            f"unknown resolve mode {mode!r}; expected one of {RESOLVE_MODES}"
        )
    check_positive("tolerance", tolerance)
    check_positive_int("max_iters", max_iters)
    new_total = state.total if total is None else float(total)
    check_positive("total", new_total)
    reps = None
    if replacements:
        reps = {
            int(i): as_speed_function(m) for i, m in replacements.items()
        }
    batch = state.batch.with_updates(reps, dropped)
    caps = batch.caps
    _check_capacity(caps, new_total)
    noop = batch is state.batch and new_total == state.total

    tracer = get_tracer()
    with tracer.span(
        "partition.resolve",
        category="partition",
        processors=batch.count,
        total=new_total,
        mode=mode,
    ) as span:
        if mode == "bracket":
            t_hi = state.finish_time
        else:
            t_hi = (
                float(np.max(batch.times_at(np.minimum(new_total, caps))))
                + 1e-12
            )
        allocs, lower, iterations, evals, t_star = _solve_equal_time(
            batch.allocations_at,
            new_total,
            t_hi,
            tolerance=tolerance,
            max_iters=max_iters,
        )
        span.set_attr("iterations", iterations)
        if tracer.enabled:
            tracer.counter("partition.resolve.solves").add(1)
            tracer.counter(f"partition.resolve.{mode}").add(1)
            if noop:
                tracer.counter("partition.resolve.noop").add(1)
            if reps:
                # the rows with_updates stacked: the replacements, or the
                # whole batch when one outgrew the parent's padding
                tracer.counter("partition.resolve.rows_rebuilt").add(
                    len(reps)
                    if state.batch.holds(reps.values())
                    else batch.count
                )
            if batch.count < state.batch.count:
                tracer.counter("partition.resolve.rows_dropped").add(
                    state.batch.count - batch.count
                )
            tracer.histogram(
                "partition.resolve.evaluations", _ITER_BUCKETS
            ).observe(evals)
        scaled = _rescale(allocs, new_total, caps, lower)
        new_state = FpmSolveState(
            batch=batch, total=new_total, finish_time=t_star
        )
        return scaled, new_state


def _row_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-row :func:`asum`.  A loop on purpose: each row must total via

    the same pairwise reduction as the single-solve path, and
    ``np.add.reduce(matrix, axis=1)`` does not promise that order.
    """
    return np.array([np.add.reduce(matrix[g]) for g in range(matrix.shape[0])])


def partition_fpm_many(
    models,
    totals,
    *,
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> list[list[float]]:
    """:func:`partition_fpm` for several workload totals over one model set.

    One masked Illinois search advances every target at once — the
    hierarchical aggregator uses this to build a node's whole aggregate
    speed function in a handful of matrix kernels.  Row ``g`` of the
    result is **bit-identical** to ``partition_fpm(models, totals[g])``:
    each target's bracket evolves by exactly the decisions the single
    solve would take, on exactly the same floats.
    """
    check_positive("tolerance", tolerance)
    check_positive_int("max_iters", max_iters)
    fns = _normalise_models(models)
    targets = [float(t) for t in totals]
    if not targets:
        return []
    batch = batch_models(tuple(fns))
    caps = batch.caps
    for t in targets:
        check_positive("total", t)
        _check_capacity(caps, t)

    tracer = get_tracer()
    with tracer.span(
        "partition.fpm.many",
        category="partition",
        processors=len(fns),
        targets=len(targets),
    ) as span:
        tot = np.asarray(targets, dtype=float)
        n = tot.size
        t_hi = np.empty(n)
        for g in range(n):
            t_hi[g] = float(np.max(batch.times_at(np.minimum(tot[g], caps)))) + 1e-12
        sums = _row_sums(batch.allocations_at_many(t_hi))
        evals = n
        while True:
            need = sums < tot
            if not bool(need.any()):
                break
            if bool(np.any(t_hi[need] > 1e30)):  # pragma: no cover
                raise RuntimeError("failed to bracket the balanced finish time")
            t_hi[need] *= 2.0
            sums[need] = _row_sums(batch.allocations_at_many(t_hi[need]))
            evals += int(need.sum())

        g_hi = sums - tot
        t_lo = np.zeros(n)
        g_lo = 0.0 - tot
        side = np.zeros(n, dtype=np.int8)
        iterations = 0
        for iteration in range(max_iters):
            width_done = (t_hi - t_lo) <= tolerance * np.maximum(1.0, t_hi)
            active = ~((g_hi == 0.0) | width_done)
            if not bool(active.any()):
                break
            idx = np.nonzero(active)[0]
            gap = g_hi[idx] - g_lo[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_mid = t_hi[idx] - g_hi[idx] * (t_hi[idx] - t_lo[idx]) / gap
            inside = (t_lo[idx] < t_mid) & (t_mid < t_hi[idx])
            t_mid = np.where(inside, t_mid, 0.5 * (t_lo[idx] + t_hi[idx]))
            g_mid = _row_sums(batch.allocations_at_many(t_mid)) - tot[idx]
            evals += idx.size
            iterations = iteration + 1

            ge = g_mid >= 0.0
            hi_idx = idx[ge]
            g_lo[hi_idx] = np.where(
                side[hi_idx] == 1, g_lo[hi_idx] * 0.5, g_lo[hi_idx]
            )
            t_hi[hi_idx] = t_mid[ge]
            g_hi[hi_idx] = g_mid[ge]
            side[hi_idx] = 1
            lo_idx = idx[~ge]
            g_hi[lo_idx] = np.where(
                side[lo_idx] == -1, g_hi[lo_idx] * 0.5, g_hi[lo_idx]
            )
            t_lo[lo_idx] = t_mid[~ge]
            g_lo[lo_idx] = g_mid[~ge]
            side[lo_idx] = -1

        final = batch.allocations_at_many(t_hi)
        # Row g at t_lo[g] == 0 is all zeros, the single solve's ``None``.
        lower = batch.allocations_at_many(t_lo)
        span.set_attr("iterations", iterations)
        if tracer.enabled:
            _record_solver_metrics(tracer, "many", len(fns), iterations, evals)
        return [
            _rescale(final[g], targets[g], caps, lower[g]) for g in range(n)
        ]


def _trace_iteration(
    tracer, algorithm: str, iteration: int, allocated: float, busy_times, total: float
) -> None:
    """Record one partitioner iteration: a span plus convergence gauges.

    ``allocated`` is the iteration's total allocation and ``busy_times``
    the execution times of the processors given work.  Callers evaluate
    both only when tracing is enabled, so the production path never pays
    for them.
    """
    imbalance = (
        float(np.max(busy_times) / np.min(busy_times)) if len(busy_times) else 1.0
    )
    tracer.record(
        f"{algorithm}.iteration",
        category="partition",
        iteration=iteration,
        allocated=allocated,
        residual=abs(allocated - total) / total,
    )
    tracer.gauge(f"{algorithm}.residual").set(abs(allocated - total) / total)
    tracer.gauge(f"{algorithm}.load_imbalance").set(imbalance)


def geometric_partition(models, total: float) -> list[float]:
    """The line-rotation formulation of FPM partitioning (see module doc).

    A ray ``s = k x`` intersects speed curve ``s_i`` where
    ``s_i(x) = k x``; that intersection is the allocation with execution
    time ``1 / k``.  The slope ``k`` is rotated (bisected) until the
    intersections sum to ``total``.  Each intersection is delegated to
    :meth:`SpeedFunction.size_at_ray`, which solves the crossing segment
    in closed form on monotone-time models — the inner inversion is
    O(log samples) instead of a 200-step numerical bisection.
    """
    check_positive("total", total)
    fns = _normalise_models(models)
    caps = [_capacity(fn) for fn in fns]
    if sum(caps) < total:
        raise ValueError(
            f"total workload {total} exceeds the combined model capacity "
            f"{sum(caps)} (all models bounded)"
        )

    def intersection(fn: SpeedFunction, slope: float, cap: float) -> float:
        return fn.size_at_ray(slope, cap)

    tracer = get_tracer()
    with tracer.span(
        "partition.geometric", category="partition", processors=len(fns), total=total
    ) as span:
        # Steeper ray (larger k) => smaller time 1/k => smaller allocations.
        k_hi = max(
            fn.speed(min(total, cap)) / min(total, cap) for fn, cap in zip(fns, caps)
        )
        while sum(intersection(fn, k_hi, cap) for fn, cap in zip(fns, caps)) < total:
            k_hi /= 2.0
            if k_hi < 1e-30:  # pragma: no cover
                raise RuntimeError("failed to bracket the partitioning ray")
        k_lo = k_hi
        while sum(intersection(fn, k_lo, cap) for fn, cap in zip(fns, caps)) < total:
            k_lo /= 2.0  # pragma: no cover - k_hi loop already reached the bracket
        k_steep = k_hi * 2.0
        # bisect slope between k_lo (enough work) and k_steep (too little)
        while sum(intersection(fn, k_steep, cap) for fn, cap in zip(fns, caps)) >= total:
            k_steep *= 2.0
            if k_steep > 1e30:
                break
        lo, hi = k_lo, k_steep
        iterations = 0
        for iteration in range(200):
            mid = 0.5 * (lo + hi)
            mid_allocs = [intersection(fn, mid, cap) for fn, cap in zip(fns, caps)]
            if sum(mid_allocs) >= total:
                lo = mid
            else:
                hi = mid
            iterations = iteration + 1
            if tracer.enabled:
                busy = [fn.time(x) for fn, x in zip(fns, mid_allocs) if x > 0]
                _trace_iteration(
                    tracer,
                    "partition.geometric",
                    iteration,
                    sum(mid_allocs),
                    busy,
                    total,
                )
            if hi - lo <= 1e-12 * max(1e-30, hi):
                break
        allocs = [intersection(fn, lo, cap) for fn, cap in zip(fns, caps)]
        span.set_attr("iterations", iterations)
        return _rescale(allocs, total, [_capacity(fn) for fn in fns])


def partition_cpm(models, total: float) -> list[float]:
    """Traditional partitioning: workload proportional to constant speeds.

    ``models`` may be :class:`ConstantPerformanceModel` instances or bare
    positive numbers.
    """
    check_positive("total", total)
    if not models:
        raise ValueError("need at least one performance model")
    speeds = []
    for m in models:
        if isinstance(m, ConstantPerformanceModel):
            speeds.append(m.speed)
        elif isinstance(m, (int, float)) and not isinstance(m, bool):
            check_positive("constant speed", float(m))
            speeds.append(float(m))
        else:
            raise TypeError(
                f"partition_cpm expects constants, got {type(m).__name__}"
            )
    s = sum(speeds)
    with get_tracer().span(
        "partition.cpm", category="partition", processors=len(speeds), total=total
    ):
        return [total * v / s for v in speeds]


def partition_homogeneous(num_processors: int, total: float) -> list[float]:
    """The even split used by homogeneous partitioning."""
    check_positive_int("num_processors", num_processors)
    check_positive("total", total)
    with get_tracer().span(
        "partition.homogeneous",
        category="partition",
        processors=num_processors,
        total=total,
    ):
        return [total / num_processors] * num_processors


@dataclass(frozen=True)
class BalanceReport:
    """Per-processor times and imbalance statistics of an allocation."""

    times: tuple[float, ...]
    makespan: float
    imbalance: float  # max time / min positive time (1.0 == perfect)

    @property
    def balanced(self) -> bool:
        """Within 1% of perfect balance."""
        return self.imbalance <= 1.01


def balance_report(models, allocations) -> BalanceReport:
    """Evaluate how balanced an allocation is under the given models."""
    fns = _normalise_models(models)
    if len(fns) != len(allocations):
        raise ValueError(
            f"{len(fns)} models but {len(allocations)} allocations"
        )
    times = tuple(
        fn.time(x) if x > 0 else 0.0 for fn, x in zip(fns, allocations)
    )
    positive = [t for t in times if t > 0]
    makespan = max(times) if times else 0.0
    imbalance = (makespan / min(positive)) if positive else 1.0
    return BalanceReport(times=times, makespan=makespan, imbalance=imbalance)


def _rescale(allocs, total: float, caps, lower=None) -> list[float]:
    """Scale allocations to sum exactly to ``total`` without breaching caps.

    The happy path is vectorised but bit-identical to the scalar loop it
    replaced: sums go through ``np.add.accumulate`` (a strict left fold,
    the same additions in the same order as ``sum``), the clip is the
    same elementwise ``min``.  The batched partitioner and its scalar
    test oracle finish through this one function, so the identity
    contract between them is unaffected.

    ``lower`` is the allocation at the other end of the solver's final
    bracket (too little work; None means all zeros), used only when the
    search stopped short of the total.
    """
    arr = np.asarray(allocs, dtype=float)
    caps_arr = np.asarray(caps, dtype=float)
    s = float(np.add.accumulate(arr)[-1])
    if s <= 0:
        raise RuntimeError("partitioner produced an empty allocation")
    if abs(s - total) <= _SUM_TOL * total:
        factor = total / s
        scaled = np.minimum(arr * factor, caps_arr)
        deficit = total - float(np.add.accumulate(scaled)[-1])
        if abs(deficit) > _SUM_TOL * total:
            # push any residual into uncapped processors
            free = np.nonzero(scaled < caps_arr)[0]
            if free.size == 0:
                raise ValueError("capacity exhausted while rescaling")
            scaled[free[0]] += deficit
        return scaled.tolist()
    # The bracket closed before the total did (a time plateau: some
    # processor's allocation jumps across an arbitrarily narrow finish-time
    # window).  Interpolate between the bracket's two ends, so each
    # processor absorbs the gap in proportion to how far its allocation
    # moves across the bracket: the ones on the plateau take it, the ones
    # whose time curve is steep there stay put, as the equal-time
    # condition demands.  Both ends lie within [0, caps], so does the mix.
    lo = np.zeros_like(arr) if lower is None else np.asarray(lower, dtype=float)
    s_lo = float(np.add.accumulate(lo)[-1])
    weight = (total - s_lo) / (s - s_lo)
    out = np.minimum(np.maximum(lo + weight * (arr - lo), 0.0), caps_arr).tolist()
    caps = caps_arr.tolist()
    # final exact fix on any allocation with room for the rounding residual
    gap = total - sum(out)
    if gap != 0.0:
        for i in range(len(out)):
            if 0.0 <= out[i] + gap <= caps[i]:
                out[i] += gap
                break
    return out
