"""Integer block allocation on top of the continuous partitioners.

The application distributes whole b x b blocks (Table III reports integer
block counts), so the continuous solution must be rounded without ruining
the balance.  :func:`round_partition` floors the continuous allocation and
hands the leftover blocks, one at a time, to the processor whose finish
time grows the least — the standard incremental refinement, optimal for
monotone time functions.  :func:`refine_integer_partition` then hill-climbs
single-block moves from the straggler, which also repairs allocations that
did not come from a balanced continuous solution.

The one-block-at-a-time hand-out is a heap of next-block times.
:func:`heap_pops` replays such a heap in bulk over NumPy arrays, pop for
pop, and :meth:`BatchSpeedModels.times_at` evaluates the block times
of every processor in one call, so rounding 10 000 processors costs a
few dozen array operations rather than a Python loop per block.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.batch import BatchSpeedModels, cached_batch
from repro.core.fpm import as_speed_function
from repro.core.speed_function import SpeedFunction
from repro.util.validation import check_nonnegative_int

#: Room of a processor with no capacity limit (far beyond any block count).
_UNLIMITED = 2**62


def _caps(fns: list[SpeedFunction]) -> list[float]:
    return [fn.max_size if fn.bounded else math.inf for fn in fns]


def heap_pops(take, seg, room, key_of) -> np.ndarray:
    """How many items each member gives up to a run of per-segment heap pops.

    Member ``j`` (members are numbered in order, grouped by segment
    ``seg[j]``) offers up to ``room[j]`` items; its ``l``-th item
    (``l = 1, 2, ...``) has key ``key_of(members, levels)``, evaluated
    for arrays of ``(member, level)`` pairs.  Segment ``s`` runs a heap
    that holds one entry per member — its next item, ordered by
    ``(key, member)`` — and pops ``take[s]`` times, each pop replacing the
    member's entry with its following item.  Returns the number of pops
    per member; a segment whose members run out of items is popped fewer
    times (its counts sum to less than ``take[s]``).

    Pop order of such a heap: replace each key by the running maximum of
    its member's keys up to it.  An item whose key falls below that
    maximum is popped immediately after its predecessor — the
    predecessor was the heap minimum, every other entry sits at or above
    it, and since then only this member's items have been popped — which
    is where the raised key sorts it too.  So the pops are the first
    ``take[s]`` items of the segment in ``(raised key, member, level)``
    order, and that holds for any keys, monotone or not.

    The items are generated in rounds: every member first offers two
    items; afterwards only members whose every generated item was taken
    offer more, twice as many per round.  A member with an untaken item
    can never be popped again within ``take``, so the rounds end with the
    exact selection after ``O(log max pops)`` rounds, having evaluated at
    most about two keys per member plus two per pop.
    """
    take = np.asarray(take, dtype=np.int64)
    seg = np.asarray(seg, dtype=np.intp)
    room = np.asarray(room, dtype=np.int64)
    count = room.size
    eligible = (room > 0) & (take[seg] > 0)
    depth = np.zeros(count, dtype=np.int64)
    raised = np.full(count, -np.inf)
    pool_j = np.empty(0, dtype=np.intp)
    pool_k = np.empty(0)
    grow = np.flatnonzero(eligible)
    chunk = 2
    while grow.size:
        levels = depth[grow, None] + np.arange(1, chunk + 1)
        r, c = np.nonzero(levels <= room[grow, None])
        members = grow[r]
        keys = np.full(levels.shape, -np.inf)
        keys[r, c] = key_of(members, levels[r, c])
        keys[:, 0] = np.maximum(keys[:, 0], raised[grow])
        keys = np.maximum.accumulate(keys, axis=1)
        depth[grow] = np.minimum(depth[grow] + chunk, room[grow])
        raised[grow] = keys[:, -1]
        pool_j = np.concatenate((pool_j, members))
        pool_k = np.concatenate((pool_k, keys[r, c]))
        # keep each segment's `take` first items; every member's items
        # sit in level order in the pool, and the sort is stable
        pool_s = seg[pool_j]
        order = np.lexsort((pool_j, pool_k, pool_s))
        ordered_s = pool_s[order]
        rank = np.arange(order.size) - np.searchsorted(ordered_s, ordered_s)
        keep = order[rank < take[ordered_s]]
        pool_j, pool_k = pool_j[keep], pool_k[keep]
        taken = np.bincount(pool_j, minlength=count)
        grow = np.flatnonzero(eligible & (taken == depth) & (depth < room))
        chunk *= 2
    return np.bincount(pool_j, minlength=count)


def round_partition(models, continuous: list[float], total: int) -> list[int]:
    """Round a continuous allocation to whole blocks summing to ``total``.

    Parameters
    ----------
    models:
        Per-processor models (FPMs / speed functions / constants) used to
        judge which processor absorbs each leftover block most cheaply.
    continuous:
        The continuous allocation (need not sum exactly to ``total``);
        every entry must be finite.
    total:
        The exact number of blocks to distribute.
    """
    check_nonnegative_int("total", total)
    models = tuple(models)
    if not models:
        if len(continuous):
            raise ValueError(f"0 models but {len(continuous)} allocations")
        if total:
            raise ValueError(f"combined capacity cannot hold {total} blocks")
        return []
    # the solve that produced `continuous` has usually stacked these rows
    batch = cached_batch(models)
    if batch is None:
        fns = tuple(as_speed_function(m) for m in models)
        batch = cached_batch(fns) or BatchSpeedModels(fns)
    if batch.count != len(continuous):
        raise ValueError(
            f"{batch.count} models but {len(continuous)} allocations"
        )
    x = np.asarray(continuous, dtype=float)
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"continuous allocation {i} is {x[i]}; expected a finite number"
        )
    caps = batch.caps
    alloc = np.minimum(
        np.floor(np.maximum(x, 0.0)), np.floor(np.minimum(caps, 1e18))
    ).astype(np.int64)
    one_heap = np.zeros(batch.count, dtype=np.intp)
    remaining = total - sum(alloc.tolist())
    if remaining < 0:
        # floor overshoot can only happen if `continuous` oversummed; trim
        # from the largest-time processors first (ties: lowest index)
        trimmed = heap_pops(
            [-remaining],
            one_heap,
            alloc,
            lambda j, lv: -batch.times_at(alloc[j] - lv + 1, j),
        )
        alloc = alloc - trimmed
    elif remaining:
        # hand out the leftover blocks cheapest-next-block first (ties:
        # lowest index)
        room = np.floor(np.minimum(caps, float(_UNLIMITED))).astype(np.int64) - alloc
        if not np.isinf(caps).any() and sum(room.tolist()) < remaining:
            raise ValueError(f"combined capacity cannot hold {total} blocks")
        gifts = heap_pops(
            [remaining],
            one_heap,
            room,
            lambda j, lv: batch.times_at(alloc[j] + lv, j),
        )
        alloc = alloc + gifts
    return alloc.tolist()


def makespan(models, allocation: list[int]) -> float:
    """Relative finish time of an integer allocation."""
    fns = [as_speed_function(m) for m in models]
    if len(fns) != len(allocation):
        raise ValueError(
            f"{len(fns)} models but {len(allocation)} allocations"
        )
    return max(
        (fn.time(a) for fn, a in zip(fns, allocation) if a > 0), default=0.0
    )


def refine_integer_partition(
    models, allocation: list[int], max_moves: int = 10_000
) -> list[int]:
    """Hill-climb single-block moves until the makespan stops improving.

    Each step moves one block away from (one of) the slowest-finishing
    processors to the processor whose time after the gift stays smallest,
    accepting the move only when the makespan strictly decreases.
    """
    fns = [as_speed_function(m) for m in models]
    if len(fns) != len(allocation):
        raise ValueError(
            f"{len(fns)} models but {len(allocation)} allocations"
        )
    caps = _caps(fns)
    alloc = [int(a) for a in allocation]
    for a in alloc:
        check_nonnegative_int("allocation entry", a)

    def span(current: list[int]) -> float:
        return max(
            (fn.time(a) for fn, a in zip(fns, current) if a > 0), default=0.0
        )

    current_span = span(alloc)
    for _ in range(max_moves):
        donor = max(
            (i for i in range(len(alloc)) if alloc[i] > 0),
            key=lambda i: fns[i].time(alloc[i]),
            default=None,
        )
        if donor is None:
            break
        candidates = [
            i
            for i in range(len(alloc))
            if i != donor and alloc[i] + 1 <= caps[i]
        ]
        if not candidates:
            break
        receiver = min(candidates, key=lambda i: fns[i].time(alloc[i] + 1))
        trial = list(alloc)
        trial[donor] -= 1
        trial[receiver] += 1
        trial_span = span(trial)
        if trial_span < current_span * (1.0 - 1e-12):
            alloc, current_span = trial, trial_span
        else:
            break
    return alloc
