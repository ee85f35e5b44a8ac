"""Reference one-model solver rows and time kernel.

Verbatim copies of ``_row_params`` (renamed :func:`row_params`) and
``time_row_at``, which shipped in :mod:`repro.core.batch` as the scalar
twins of the batched kernels through v1.16.  :func:`row_params` builds
one model's solver row (the one-model case of
:func:`repro.core.batch._stack_rows`), and :func:`time_row_at` performs
the same floating-point operations, in the same order, as one element
of :meth:`repro.core.batch.BatchSpeedModels.times_at`.  The scalar
partitioner and panel-loop oracles walk models with them, and the
identity suites require the batched kernels to agree bit for bit.
"""

from __future__ import annotations

from repro.core.batch import _padded, _stack_rows
from repro.core.speed_function import SpeedFunction


def row_params(fn: SpeedFunction):
    """One model's solver row (the one-model case of ``_stack_rows``).

    Returns ``(sizes, speeds, knot_times, table, monotone)`` with
    ``table`` of shape ``(m + 1, 4)``; cached on the speed function,
    because the one-model kernels query it once per model per call.
    """
    cached = getattr(fn, "_solver_row_cache", None)
    if cached is not None:
        return cached
    m = len(fn._sizes)
    out = _padded(1, m)
    _stack_rows((fn,), out, (0,))
    knot_times, sizes, speeds, table, _, _, monotone = out
    row = (
        sizes[0, :m],
        speeds[0, :m],
        knot_times[0, :m],
        table[0],
        bool(monotone[0]),
    )
    object.__setattr__(fn, "_solver_row_cache", row)
    return row


def time_row_at(fn: SpeedFunction, size: float) -> float:
    """Scalar twin of the batched time kernel: ``t(x) = x / s(x)``."""
    if size <= 0.0:
        return 0.0
    sizes, speeds, _, _, _ = row_params(fn)
    k = int((sizes < size).sum())
    if k == 0:
        s = speeds[0]
    elif k == sizes.size:
        s = speeds[-1]
    else:
        x0, x1 = sizes[k - 1], sizes[k]
        s0, s1 = speeds[k - 1], speeds[k]
        s = s0 + ((size - x0) / (x1 - x0)) * (s1 - s0)
    return size / s
