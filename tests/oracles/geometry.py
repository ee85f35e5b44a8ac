"""Reference column geometry: the scalar column-based partition.

Verbatim copies of the implementations that :mod:`repro.core.geometry`
replaced with array code: the loop-based ``column_based_partition`` with
its ``_largest_remainder`` rounding, the cubic Python grouping DP with the
greedy grouping beyond it, and the column-sweep ``validate_tiling`` (here
a free function of the partition).  The identity suites compare the
production code against these.
"""

from __future__ import annotations

import bisect
import math

from repro.core.geometry import ColumnPartition, Rectangle
from repro.util.validation import check_positive_int

#: Largest processor count arranged by the exact O(p^3) grouping DP;
#: beyond it the sqrt-shaped greedy takes over (see `_column_groups`).
_EXACT_DP_LIMIT = 128


def validate_tiling(partition: ColumnPartition) -> None:
    """Raise ValueError unless rectangles tile the n x n grid exactly.

    Exact area + in-bounds + pairwise disjoint imply an exact cover.
    Disjointness is checked by a column sweep — close/open events in
    x, active rectangles kept as sorted row intervals, each opening
    rectangle compared with its two row neighbours — O(m log m)
    comparisons instead of the all-pairs scan, which matters at
    10k+ rectangles.
    """
    area = sum(r.area for r in partition.rectangles)
    if area != partition.n * partition.n:
        raise ValueError(
            f"rectangles cover {area} blocks, expected {partition.n * partition.n}"
        )
    live = [r for r in partition.rectangles if r.area > 0]
    events = []
    for r in live:
        if r.col + r.width > partition.n or r.row + r.height > partition.n:
            raise ValueError(f"rectangle {r} exceeds the matrix bounds")
        events.append((r.col, 1, r))
        events.append((r.col + r.width, 0, r))
    # closes sort before opens at equal x: sharing an edge is not an
    # overlap (Rectangle.intersects is strict, and so is the sweep)
    events.sort(key=lambda e: (e[0], e[1]))
    rows: list[int] = []  # active rectangles' start rows, sorted
    active: list[Rectangle] = []  # parallel to `rows`
    for _, kind, r in events:
        i = bisect.bisect_left(rows, r.row)
        if kind == 0:  # close
            while active[i] is not r:
                i += 1
            rows.pop(i)
            active.pop(i)
            continue
        # while disjoint, active row intervals are totally ordered, so
        # only the immediate neighbours can collide with the newcomer
        if i > 0 and active[i - 1].row + active[i - 1].height > r.row:
            raise ValueError(f"rectangles overlap: {active[i - 1]} and {r}")
        if i < len(rows) and rows[i] < r.row + r.height:
            raise ValueError(f"rectangles overlap: {active[i]} and {r}")
        rows.insert(i, r.row)
        active.insert(i, r)


def _largest_remainder(targets: list[float], total: int, minimum: list[int]) -> list[int]:
    """Round non-negative targets to integers summing to ``total``.

    Every entry receives at least its ``minimum``; leftovers go to the
    largest fractional remainders (ties resolved by index for determinism).
    """
    if sum(minimum) > total:
        raise ValueError(
            f"cannot round: minimums sum to {sum(minimum)} > total {total}"
        )
    floors = [max(m, int(math.floor(t))) for t, m in zip(targets, minimum)]
    while sum(floors) > total:
        # shrink the entry that most over-rounded its target, respecting
        # minimums; feasibility is guaranteed by the check above
        candidates = [i for i in range(len(floors)) if floors[i] > minimum[i]]
        i = min(candidates, key=lambda j: targets[j] - floors[j])
        floors[i] -= 1
    remainders = sorted(
        range(len(targets)),
        key=lambda i: (-(targets[i] - floors[i]), i),
    )
    deficit = total - sum(floors)
    out = list(floors)
    for k in range(deficit):
        out[remainders[k % len(remainders)]] += 1
    return out


def _column_groups_heuristic(
    areas_sorted: list[float], max_group: int, k_limit: int
) -> list[int]:
    """Greedy sqrt-shaped grouping for processor counts beyond the DP.

    For near-uniform relative areas the half-perimeter objective
    ``sum(count_c * width_c) + c`` is minimised by ~sqrt(p) columns of
    equal area, so aim for that shape: pick ``k ≈ sqrt(p)`` (clamped to
    feasibility), then cut the area-sorted sequence greedily so every
    column carries ~1/k of the remaining area.  O(p) after the prefix
    walk, exact-feasible by construction.
    """
    p = len(areas_sorted)
    k_min = math.ceil(p / max_group)
    if k_min > k_limit:
        raise ValueError(
            f"cannot arrange {p} processors with at most {max_group} per "
            f"column and {k_limit} columns"
        )
    k = min(max(round(math.sqrt(p)), k_min, 1), k_limit)
    remaining_area = sum(areas_sorted)
    groups: list[int] = []
    idx = 0
    for c in range(k):
        remaining_cols = k - c
        remaining_items = p - idx
        # bounds keeping every later column feasible: at least one item
        # each, at most max_group each
        lo = max(1, remaining_items - (remaining_cols - 1) * max_group)
        hi = min(max_group, remaining_items - (remaining_cols - 1))
        target = remaining_area / remaining_cols
        size = 0
        acc = 0.0
        while size < lo or (size < hi and acc < target):
            acc += areas_sorted[idx + size]
            size += 1
        groups.append(size)
        idx += size
        remaining_area -= acc
    return groups


def _column_groups(
    areas_sorted: list[float], max_group: int, max_columns: int | None = None
) -> list[int]:
    """DP over contiguous groups minimising sum(count_c * width_c) + c.

    ``max_group`` caps the processors per column (a column of the n x n
    grid cannot stack more than n rectangles).  Returns the group sizes in
    order.  The exact DP is cubic in the processor count, so past
    ``_EXACT_DP_LIMIT`` processors the sqrt-shaped greedy grouping takes
    over — same contiguity and feasibility contract, near-optimal
    half-perimeter at cluster scale.
    """
    p = len(areas_sorted)
    if max_group < 1:
        raise ValueError(f"max_group must be >= 1, got {max_group}")
    k_limit = p if max_columns is None else min(p, max_columns)
    if p > _EXACT_DP_LIMIT:
        return _column_groups_heuristic(areas_sorted, max_group, k_limit)
    prefix = [0.0]
    for a in areas_sorted:
        prefix.append(prefix[-1] + a)
    # cost[j][k]: best cost of first j processors in k columns
    inf = math.inf
    cost = [[inf] * (p + 1) for _ in range(p + 1)]
    back = [[-1] * (p + 1) for _ in range(p + 1)]
    cost[0][0] = 0.0
    for j in range(1, p + 1):
        for k in range(1, j + 1):
            for m in range(max(k - 1, j - max_group), j):
                if cost[m][k - 1] is inf:
                    continue
                width = prefix[j] - prefix[m]
                c = cost[m][k - 1] + (j - m) * width
                if c < cost[j][k]:
                    cost[j][k] = c
                    back[j][k] = m
    feasible = [k for k in range(1, k_limit + 1) if cost[p][k] < inf]
    if not feasible:
        raise ValueError(
            f"cannot arrange {p} processors with at most {max_group} per "
            f"column and {k_limit} columns"
        )
    best_k = min(feasible, key=lambda k: cost[p][k] + k)
    groups: list[int] = []
    j, k = p, best_k
    while k > 0:
        m = back[j][k]
        groups.append(j - m)
        j, k = m, k - 1
    groups.reverse()
    return groups


def column_based_partition(allocations: list[int], n: int) -> ColumnPartition:
    """Arrange integer block allocations into a column-based 2D partition.

    Parameters
    ----------
    allocations:
        Blocks per processor, summing to ``n * n``.  Zero allocations yield
        empty (zero-area) rectangles.
    n:
        Matrix size in blocks (the matrix is ``n x n`` blocks).
    """
    check_positive_int("n", n)
    if any(a < 0 for a in allocations):
        raise ValueError("allocations must be non-negative")
    if sum(allocations) != n * n:
        raise ValueError(
            f"allocations sum to {sum(allocations)}, expected {n * n}"
        )

    active = [(i, a) for i, a in enumerate(allocations) if a > 0]
    if not active:
        raise ValueError("at least one allocation must be positive")
    if len(active) > n * n:
        raise ValueError(
            f"{len(active)} non-empty allocations cannot tile an "
            f"{n} x {n} grid"
        )
    order = sorted(active, key=lambda t: (-t[1], t[0]))
    rel = [a / (n * n) for _, a in order]
    groups = _column_groups(rel, max_group=n, max_columns=n)

    # --- integer column widths -----------------------------------------
    col_rel_widths = []
    idx = 0
    col_members: list[list[tuple[int, int]]] = []
    for g in groups:
        members = order[idx : idx + g]
        idx += g
        col_members.append(members)
        col_rel_widths.append(sum(a for _, a in members) / (n * n))
    widths = _largest_remainder(
        [w * n for w in col_rel_widths], n, minimum=[1] * len(groups)
    )

    # --- integer heights within each column ----------------------------
    rects: list[Rectangle] = []
    col_start = 0
    for members, width in zip(col_members, widths):
        targets = [a / width for _, a in members]
        heights = _largest_remainder(targets, n, minimum=[1] * len(members))
        row = 0
        for (owner, _), h in zip(members, heights):
            rects.append(
                Rectangle(owner=owner, col=col_start, row=row, width=width, height=h)
            )
            row += h
        col_start += width

    # zero-allocation processors get empty rectangles for index stability
    present = {r.owner for r in rects}
    for i, a in enumerate(allocations):
        if i not in present:
            rects.append(Rectangle(owner=i, col=0, row=0, width=0, height=0))

    rects.sort(key=lambda r: r.owner)
    part = ColumnPartition(n=n, rectangles=tuple(rects), column_widths=tuple(widths))
    validate_tiling(part)
    return part


