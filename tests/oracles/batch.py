"""Reference one-model solver rows.

:func:`row_params` is a verbatim copy of ``_row_params``, which shipped
in :mod:`repro.core.batch` through v1.16: one model's solver row, the
one-model case of :func:`repro.core.batch._stack_rows`.  The scalar
partitioner oracle walks models with it, and the identity suites require
the batched kernels to agree bit for bit.  The batched time kernel needs
no copy here: its one-model form is :meth:`SpeedFunction.time`.
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
    m = len(fn)
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
