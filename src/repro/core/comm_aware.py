"""Communication-aware refinement of FPM partitions.

The paper partitions "with respect to computational performance" and
relies on the column-based geometry to keep communication small (Section
IV).  That leaves a second-order effect on the table: the per-iteration
broadcast time grows with the *largest* rectangle's half-perimeter
(``~ 2 sqrt(x)`` for near-square shapes), so shaving blocks off the
biggest allocation can buy more in communication than it costs in
computation.

:func:`comm_aware_refinement` hill-climbs single-block moves on the
predicted total iteration time

    ``T(alloc) = max_i t_i(x_i) + beta * max_i 2 sqrt(x_i)``

where ``beta`` converts pivot blocks into seconds (from the communication
model).  With ``beta = 0`` it reduces to the plain computation balance, so
the function is a strict generalisation of
:func:`repro.core.integer.refine_integer_partition`.

The production hill-climb is vectorised: per-device times are cached and
refreshed only at the two entries a move touches, and each candidate
move's objective comes from exclusive running maxima
(prefix/suffix) over the device array instead of an O(p) rescan — one
move costs O(p) NumPy work rather than O(p^2) Python time evaluations.
The original quadratic walk is kept as a test fixture in
``tests/oracles/comm_aware.py``; the two are **bit-identical** on every
valid input (same ``fn.time`` evaluations, same max selections, same
sequential accept scan), which the equivalence test enforces.  A change
to the move rule here must update the oracle too.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.fpm import as_speed_function
from repro.util.validation import check_nonnegative, check_nonnegative_int


def predicted_iteration_time(models, allocation, beta: float) -> float:
    """The comm-aware objective: compute makespan + broadcast term."""
    fns = [as_speed_function(m) for m in models]
    if len(fns) != len(allocation):
        raise ValueError(
            f"{len(fns)} models but {len(allocation)} allocations"
        )
    check_nonnegative("beta", beta)
    compute = max(
        (fn.time(a) for fn, a in zip(fns, allocation) if a > 0), default=0.0
    )
    comm = max((2.0 * math.sqrt(a) for a in allocation if a > 0), default=0.0)
    return compute + beta * comm


def _exclusive_max(values: np.ndarray) -> np.ndarray:
    """Per-index maximum of every *other* entry (``-inf`` when alone).

    Prefix/suffix running maxima make all ``p`` leave-one-out maxima one
    O(p) pass; since float ``max`` selection is order-independent, each
    entry is bit-identical to ``max(values[i] for i != r)``.
    """
    p = values.size
    out = np.empty(p)
    if p == 1:
        out[0] = -math.inf
        return out
    prefix = np.maximum.accumulate(values)
    suffix = np.maximum.accumulate(values[::-1])[::-1]
    out[0] = suffix[1]
    out[-1] = prefix[-2]
    if p > 2:
        out[1:-1] = np.maximum(prefix[:-2], suffix[2:])
    return out


def comm_aware_refinement(
    models,
    allocation: list[int],
    beta: float,
    max_moves: int = 10_000,
) -> list[int]:
    """Hill-climb single-block moves on the comm-aware objective.

    Vectorised: per-device time and perimeter terms are cached arrays
    refreshed only at the entries a move touches, and every candidate
    receiver's objective is evaluated at once through exclusive running
    maxima — bit-identical to the original quadratic walk kept in
    ``tests/oracles/comm_aware.py``.

    Parameters
    ----------
    models:
        Per-unit performance models (time in the same relative units the
        partitioner used).
    allocation:
        Starting integer allocation (typically the FPM solution); every
        entry must be a finite, non-negative whole number of blocks.
    beta:
        Seconds of per-iteration broadcast time per pivot block, in the
        same time units as ``models``; derive it as
        ``block_bytes / bandwidth / unit_time_scale``.
    max_moves:
        Upper bound on accepted moves (``>= 0``).
    """
    fns = [as_speed_function(m) for m in models]
    if not fns:
        raise ValueError("need at least one performance model")
    if len(fns) != len(allocation):
        raise ValueError(
            f"{len(fns)} models but {len(allocation)} allocations"
        )
    check_nonnegative("beta", beta)
    check_nonnegative_int("max_moves", max_moves)
    for i, a in enumerate(allocation):
        if not math.isfinite(a) or a < 0 or a != math.floor(a):
            raise ValueError(
                f"allocation[{i}] is {a!r}; expected a non-negative whole "
                "number of blocks"
            )
    p = len(fns)
    caps = np.array([fn.max_size if fn.bounded else math.inf for fn in fns])
    alloc = [int(a) for a in allocation]
    alloc_np = np.array(alloc, dtype=float)

    def time_of(i: int, a: int) -> float:
        return fns[i].time(a) if a > 0 else 0.0

    def perim_of(a: int) -> float:
        return 2.0 * math.sqrt(a) if a > 0 else 0.0

    def inc_time(i: int) -> float:
        # bounded models raise past their cap; a capped device is never a
        # valid receiver, so inf keeps the cache total without changing
        # any selected value
        if alloc[i] + 1.0 > caps[i]:
            return math.inf
        return fns[i].time(alloc[i] + 1)

    # t/c: objective terms at the current allocation; the *_inc twins are
    # the terms if that device received one more block.  A move touches
    # two devices, so refreshes are O(1) model evaluations per move.
    t_cur = np.array([time_of(i, a) for i, a in enumerate(alloc)])
    c_cur = np.array([perim_of(a) for a in alloc])
    t_inc = np.array([inc_time(i) for i in range(p)])
    c_inc = np.array([2.0 * math.sqrt(a + 1) for a in alloc])
    current = float(np.max(t_cur)) + beta * float(np.max(c_cur))
    indices = np.arange(p)
    for _ in range(max_moves):
        best_move = None
        best_value = current
        # donors: the compute straggler and the comm leader(s)
        donors = set()
        donors.add(int(np.argmax(t_cur)))
        donors.add(int(np.argmax(alloc_np)))
        for donor in donors:
            if alloc[donor] == 0:
                continue
            # base vectors with the donor decremented; restored after the
            # exclusive maxima are taken
            t_donor, c_donor = t_cur[donor], c_cur[donor]
            t_cur[donor] = time_of(donor, alloc[donor] - 1)
            c_cur[donor] = perim_of(alloc[donor] - 1)
            excl_t = _exclusive_max(t_cur)
            excl_c = _exclusive_max(c_cur)
            t_cur[donor], c_cur[donor] = t_donor, c_donor
            value = np.maximum(excl_t, t_inc) + beta * np.maximum(
                excl_c, c_inc
            )
            valid = (indices != donor) & (alloc_np + 1.0 <= caps)
            value = np.where(valid, value, math.inf)
            # sequential accept scan, replicating the scalar walk's
            # progressive threshold (a later candidate inside the 1e-12
            # band of an accepted one is rejected, exactly as there)
            start = 0
            while True:
                threshold = best_value * (1.0 - 1e-12)
                better = np.nonzero(value[start:] < threshold)[0]
                if better.size == 0:
                    break
                receiver = start + int(better[0])
                best_move = (donor, receiver)
                best_value = float(value[receiver])
                start = receiver + 1
        if best_move is None:
            break
        donor, receiver = best_move
        alloc[donor] -= 1
        alloc[receiver] += 1
        alloc_np[donor] -= 1.0
        alloc_np[receiver] += 1.0
        for i in (donor, receiver):
            t_cur[i] = time_of(i, alloc[i])
            c_cur[i] = perim_of(alloc[i])
            t_inc[i] = inc_time(i)
            c_inc[i] = 2.0 * math.sqrt(alloc[i] + 1)
        current = best_value
    return alloc
