"""Reference integer rounding: the heap-based ``round_partition``.

Verbatim copy of the scalar implementation that
:func:`repro.core.integer.round_partition` replaced with bulk array
selection.  It calls :meth:`SpeedFunction.time` once per heap entry and
serves as the oracle the identity suite compares against.
"""

from __future__ import annotations

import heapq
import math

from repro.core.fpm import as_speed_function
from repro.core.speed_function import SpeedFunction
from repro.util.validation import check_nonnegative_int


def _caps(fns: list[SpeedFunction]) -> list[float]:
    return [fn.max_size if fn.bounded else math.inf for fn in fns]


def round_partition(models, continuous: list[float], total: int) -> list[int]:
    """Round a continuous allocation to whole blocks summing to ``total``.

    Parameters
    ----------
    models:
        Per-processor models (FPMs / speed functions / constants) used to
        judge which processor absorbs each leftover block most cheaply.
    continuous:
        The continuous allocation (need not sum exactly to ``total``).
    total:
        The exact number of blocks to distribute.
    """
    check_nonnegative_int("total", total)
    fns = [as_speed_function(m) for m in models]
    if len(fns) != len(continuous):
        raise ValueError(
            f"{len(fns)} models but {len(continuous)} allocations"
        )
    caps = _caps(fns)
    alloc = [min(int(math.floor(max(0.0, x))), int(min(c, 1e18))) for x, c in zip(continuous, caps)]
    if sum(alloc) > total:
        # floor overshoot can only happen if `continuous` oversummed; trim
        # from the largest-time processors first
        while sum(alloc) > total:
            i = max(
                (j for j in range(len(alloc)) if alloc[j] > 0),
                key=lambda j: fns[j].time(alloc[j]),
            )
            alloc[i] -= 1
    # Hand out the leftover blocks cheapest-next-block first.  A heap of
    # (time of the next block, index) makes this O(L log p) instead of a
    # full scan per block; each processor has exactly one live entry (its
    # own is replaced right after it receives a block, and nothing else
    # changes its next-block time), and the index tie-break reproduces
    # the linear scan's lowest-index-wins choice.
    remaining = total - sum(alloc)
    heap = [
        (fn.time(alloc[i] + 1), i)
        for i, fn in enumerate(fns)
        if alloc[i] + 1 <= caps[i]
    ]
    heapq.heapify(heap)
    while remaining > 0:
        if not heap:
            raise ValueError(
                f"combined capacity cannot hold {total} blocks"
            )
        _, i = heapq.heappop(heap)
        alloc[i] += 1
        remaining -= 1
        if alloc[i] + 1 <= caps[i]:
            heapq.heappush(heap, (fns[i].time(alloc[i] + 1), i))
    return alloc
