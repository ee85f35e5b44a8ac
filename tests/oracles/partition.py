"""Reference FPM partitioner: the per-model solve.

Verbatim copies of ``partition_fpm_scalar`` and its allocation kernel
``allocation_row_at``, which shipped beside the batched solver in
:mod:`repro.core.partition` and :mod:`repro.core.batch` until v1.15.
The production solver evaluates all models in one ray intersection per
Illinois iteration; this oracle runs the same driver
(``_solve_equal_time``) and finish (``_rescale``) one model at a time.
The identity suites require :func:`repro.core.partition.partition_fpm`
to return equal allocations on every input.
"""

from __future__ import annotations

import math

from repro.core.batch import _TINY_DENOM
from repro.core.partition import (
    FPM_MAX_ITERS,
    FPM_TOLERANCE,
    _capacity,
    _check_capacity,
    _normalise_models,
    _rescale,
    _solve_equal_time,
)
from repro.core.speed_function import SpeedFunction
from repro.util.validation import check_positive, check_positive_int

from tests.oracles.batch import row_params


def allocation_row_at(fn: SpeedFunction, finish_time: float) -> float:
    """Scalar twin of the batched allocation kernel (one model, one T).

    Must mirror :meth:`BatchSpeedModels.allocations_at` operation for
    operation — the bit-identity tests compare the two directly.
    """
    sizes, _, knot_times, table, monotone = row_params(fn)
    if not monotone:
        cap = sizes[-1] if fn.bounded else math.inf
        return min(fn.max_size_within_time(finish_time), cap)
    k = int((knot_times < finish_time).sum())
    a, b, lo, hi = table[k]
    denom = 1.0 - finish_time * b
    if abs(denom) < _TINY_DENOM:
        x = hi
    else:
        x = finish_time * a / denom
    return min(max(x, lo), hi)


def partition_fpm_scalar(
    models,
    total: float,
    *,
    tolerance: float = FPM_TOLERANCE,
    max_iters: int = FPM_MAX_ITERS,
) -> list[float]:
    """Reference oracle for :func:`partition_fpm`: one model at a time.

    Runs the *same* Illinois driver with the one-model kernels
    (:func:`allocation_row_at` / :meth:`SpeedFunction.time`),
    so its result is bit-identical to the vectorized solver on every
    input — the property suite holds the two against each other.  It is
    deliberately trace-free: a plain readable statement of the
    algorithm, not a production path.
    """
    check_positive("total", total)
    check_positive("tolerance", tolerance)
    check_positive_int("max_iters", max_iters)
    fns = _normalise_models(models)
    caps = [_capacity(fn) for fn in fns]
    _check_capacity(caps, total)

    def evaluate(finish_time):
        return [allocation_row_at(fn, finish_time) for fn in fns]

    t_hi = max(fn.time(min(total, cap)) for fn, cap in zip(fns, caps)) + 1e-12
    allocs, lower, _, _, _ = _solve_equal_time(
        evaluate, total, t_hi, tolerance=tolerance, max_iters=max_iters
    )
    return _rescale(allocs, total, caps, lower)
