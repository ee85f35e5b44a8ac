"""Column-based 2D matrix partitioning (Clarke, Lastovetsky, Rychkov [17]).

The application arranges the processors' submatrices over a 2D grid so that
(i) every processor's rectangle area matches its workload allocation and
(ii) the total communication volume — proportional to the sum of rectangle
half-perimeters — is minimised, making the rectangles "as square as
possible" (paper Section IV).

The algorithm, following the column-based scheme of Beaumont et al. used by
[17]:

1. sort processors by allocated area, descending;
2. group the sorted sequence into contiguous *columns*; for a column with
   relative areas ``a_i`` the column width is ``sum a_i`` and each
   processor's height is ``a_i / width`` — areas are exact by construction;
3. choose the grouping minimising the half-perimeter sum
   ``sum_cols (count_c * w_c) + num_cols`` by dynamic programming over
   contiguous splits (optimal for the column-based family);
4. snap to the integer block grid with largest-remainder rounding, columns
   first, then heights within each column — the rectangles tile the
   ``n x n`` block matrix exactly, with realized areas as close to the
   requested allocation as the grid allows.

Every step works on NumPy arrays — one sort, segmented roundings over all
columns at once, and a corner-parity tiling certificate — so a
10 000-processor arrangement costs a few dozen array operations plus the
construction of its rectangles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.core.integer import heap_pops
from repro.util.validation import check_positive_int

#: Largest processor count arranged by the exact O(p^3) grouping DP;
#: beyond it the sqrt-shaped greedy takes over (see `_column_groups`).
_EXACT_DP_LIMIT = 128


@dataclass(frozen=True)
class Rectangle:
    """One processor's submatrix in block coordinates (column-major layout)."""

    owner: int
    col: int
    row: int
    width: int
    height: int

    def __init__(self, owner: int, col: int, row: int, width: int, height: int) -> None:
        # hand-written (the dataclass keeps it): the generated frozen
        # __init__ plus a __post_init__ check cost twice as much, and
        # a cluster arrangement builds 10 000 of these
        if col < 0 or row < 0 or width < 0 or height < 0:
            raise ValueError("rectangle coordinates must be non-negative")
        self.__dict__.update(owner=owner, col=col, row=row, width=width, height=height)

    @property
    def area(self) -> int:
        return self.width * self.height

    @property
    def half_perimeter(self) -> int:
        return self.width + self.height

    def intersects(self, other: "Rectangle") -> bool:
        """True when the two rectangles overlap in a nonzero area."""
        return (
            self.col < other.col + other.width
            and other.col < self.col + self.width
            and self.row < other.row + other.height
            and other.row < self.row + self.height
        )


@dataclass(frozen=True)
class ColumnPartition:
    """The complete arrangement: rectangles indexed by processor."""

    n: int
    rectangles: tuple[Rectangle, ...]
    column_widths: tuple[int, ...]

    def rectangle_of(self, owner: int) -> Rectangle:
        # lazily indexed: repeated lookups (the runtime asks per panel)
        # must not rescan 10k rectangles; first match wins, matching the
        # historical linear scan on duplicate-owner partitions
        by_owner = getattr(self, "_by_owner", None)
        if by_owner is None:
            by_owner = {}
            for r in self.rectangles:
                by_owner.setdefault(r.owner, r)
            object.__setattr__(self, "_by_owner", by_owner)
        found = by_owner.get(owner)
        if found is None:
            raise KeyError(f"no rectangle for processor {owner}")
        return found

    def realized_allocations(self, num_processors: int) -> list[int]:
        """Block areas actually granted by the grid, per processor."""
        out = [0] * num_processors
        for r in self.rectangles:
            out[r.owner] += r.area
        return out

    def total_half_perimeter(self) -> int:
        """The communication-volume proxy the arrangement minimises."""
        return sum(r.half_perimeter for r in self.rectangles if r.area > 0)

    def validate_tiling(self) -> None:
        """Raise ValueError unless rectangles tile the n x n grid exactly.

        Checks the corner-parity certificate of :func:`_certify_tiling`.
        """
        rects = self.rectangles
        coords = np.fromiter(
            chain.from_iterable((r.col, r.row, r.width, r.height) for r in rects),
            np.int64,
            4 * len(rects),
        )
        _certify_tiling(self.n, coords.reshape(-1, 4).T, rects)


def _certify_tiling(n: int, coords: np.ndarray, rectangles) -> None:
    """Raise ValueError unless the rectangles tile the ``n x n`` grid exactly.

    ``coords`` holds the rows ``col, row, width, height``; rectangle
    ``k`` covers columns ``col[k] .. col[k] + width[k] - 1`` and rows
    ``row[k] .. row[k] + height[k] - 1``, and ``rectangles[k]`` names it
    in error messages.  Zero-area rectangles cover nothing and are
    ignored.  Three checks, in order:

    1. the areas sum to ``n * n``;
    2. every rectangle lies inside the grid;
    3. the rectangle corners that occur an odd number of times are
       exactly the four corners of the grid.

    Why this is exact.  Let ``f(x, y)`` count the rectangles covering
    cell ``(x, y)``, and let ``g = f - 1`` on the grid's cells and
    ``g = f`` elsewhere.  Check 2 puts every rectangle inside the grid,
    so ``g`` is zero outside it.  Take the 2D difference
    ``D(x, y) = g(x, y) - g(x-1, y) - g(x, y-1) + g(x-1, y-1)``.  A
    rectangle contributes +-1 to ``D`` at its four corner points and 0
    elsewhere, and so does the grid itself; modulo 2 the signs vanish,
    so check 3 says ``D`` is even everywhere.  Summing ``D`` over the
    quadrant below and left of a cell gives back ``g`` there, so ``g``
    is even on every cell, and ``f`` is odd — at least 1 — on each of
    the ``n * n`` grid cells.  Check 1 says the coverage totals
    ``n * n``, so every cell is covered exactly once: an exact tiling.
    Conversely, an exact tiling has ``g = 0``, so its odd corners are
    the grid's four.  Once checks 1 and 2 pass, a failed parity check
    therefore means some cell is covered twice (and another not at
    all): an overlap.

    The cost is one sort of ``4 m`` corner keys for ``m`` rectangles.
    """
    col, row, width, height = coords
    if ((width > n) | (height > n)).any():
        # such areas may not fit in int64; this rectangle fails anyway
        covered = sum(w * h for w, h in zip(width.tolist(), height.tolist()))
    else:
        covered = int((width * height).sum())
    if covered != n * n:
        raise ValueError(f"rectangles cover {covered} blocks, expected {n * n}")
    live = np.flatnonzero((width > 0) & (height > 0))
    c0, r0, w, h = col[live], row[live], width[live], height[live]
    outside = np.flatnonzero((c0 > n - w) | (r0 > n - h))
    if outside.size:
        rect = rectangles[int(live[outside[0]])]
        raise ValueError(f"rectangle {rect} exceeds the matrix bounds")
    c1, r1 = c0 + w, r0 + h
    stride = n + 1
    corners = np.concatenate(
        (c0 * stride + r0, c1 * stride + r0, c0 * stride + r1, c1 * stride + r1)
    )
    keys, counts = np.unique(corners, return_counts=True)
    grid = np.array([0, n, n * stride, n * stride + n])
    wrong = np.setxor1d(keys[counts % 2 == 1], grid)
    if wrong.size:
        x, y = divmod(int(wrong[0]), stride)
        raise ValueError(
            f"rectangles overlap: corner parity fails at column {x}, row {y}"
        )


def _largest_remainder(targets, seg, total: int, minimum) -> np.ndarray:
    """Round non-negative targets to integers, each segment summing to ``total``.

    ``seg`` numbers the segment of every entry (non-decreasing, starting
    at 0).  Within a segment every entry receives at least its
    ``minimum``; floors that overshoot ``total`` give back blocks from
    the entry that most over-rounded (smallest ``target - floor``, lowest
    index on ties, one block at a time — a heap replayed by
    :func:`heap_pops`); then leftovers go to the largest fractional
    remainders, ties by index, cycling when there are more leftovers than
    entries.
    """
    targets = np.asarray(targets, dtype=float)
    seg = np.asarray(seg, dtype=np.intp)
    minimum = np.asarray(minimum, dtype=np.int64)
    starts = np.flatnonzero(np.diff(seg, prepend=-1))
    lowest = np.add.reduceat(minimum, starts)
    if (lowest > total).any():
        raise ValueError(
            f"cannot round: minimums sum to {int(lowest[lowest > total][0])} "
            f"> total {total}"
        )
    floors = np.maximum(minimum, np.floor(targets).astype(np.int64))
    excess = np.add.reduceat(floors, starts) - total
    if (excess > 0).any():
        over = floors
        floors = floors - heap_pops(
            np.maximum(excess, 0),
            seg,
            over - minimum,
            lambda j, lv: targets[j] - (over[j] - lv + 1),
        )
    deficit = total - np.add.reduceat(floors, starts)
    order = np.lexsort((np.arange(seg.size), floors - targets, seg))
    size = np.diff(starts, append=seg.size)
    ordered = seg[order]
    rank = np.arange(order.size) - starts[ordered]
    out = floors.copy()
    out[order] += deficit[ordered] // size[ordered] + (
        rank < deficit[ordered] % size[ordered]
    )
    return out


def ascii_layout(partition: ColumnPartition, cell_width: int = 2) -> str:
    """Render the arrangement as a character grid (one cell per block).

    Owners are labelled 0-9 then a-z then A-Z then '#'; useful in examples
    and docs to *see* the column-based structure.
    """
    if cell_width < 1:
        raise ValueError(f"cell_width must be >= 1, got {cell_width}")
    labels = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    n = partition.n
    grid = [["?"] * n for _ in range(n)]
    for rect in partition.rectangles:
        if rect.area == 0:
            continue
        mark = labels[rect.owner] if rect.owner < len(labels) else "#"
        for r in range(rect.row, rect.row + rect.height):
            for c in range(rect.col, rect.col + rect.width):
                grid[r][c] = mark
    return "\n".join(
        "".join(cell * cell_width for cell in row) for row in grid
    )


def _column_groups_heuristic(
    areas_sorted, max_group: int, k_limit: int
) -> list[int]:
    """Greedy sqrt-shaped grouping for processor counts beyond the DP.

    For near-uniform relative areas the half-perimeter objective
    ``sum(count_c * width_c) + c`` is minimised by ~sqrt(p) columns of
    equal area, so aim for that shape: pick ``k ≈ sqrt(p)`` (clamped to
    feasibility), then cut the area-sorted sequence greedily so every
    column carries ~1/k of the remaining area.  Each cut is a
    ``searchsorted`` over the column's running sum — the same sequential
    float sum an item-by-item scan accumulates — over a window that
    doubles until it reaches the target, so the whole grouping reads
    each area about twice.
    """
    areas = np.asarray(areas_sorted, dtype=float)
    p = areas.size
    k_min = math.ceil(p / max_group)
    if k_min > k_limit:
        raise ValueError(
            f"cannot arrange {p} processors with at most {max_group} per "
            f"column and {k_limit} columns"
        )
    k = min(max(round(math.sqrt(p)), k_min, 1), k_limit)
    remaining_area = sum(areas.tolist())
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
        # the column takes items until it holds at least `lo`, and then
        # until it reaches `hi` items or `target` area
        window = max(lo, min(hi, 2 * remaining_items // remaining_cols))
        while True:
            running = np.cumsum(areas[idx : idx + window])
            reached = int(np.searchsorted(running, target)) + 1
            if reached <= window or window >= hi:
                break
            window = min(hi, 2 * window)
        size = max(lo, min(hi, reached))
        groups.append(size)
        idx += size
        remaining_area -= float(running[size - 1])
    return groups


def _column_groups(
    areas_sorted, max_group: int, max_columns: int | None = None
) -> list[int]:
    """DP over contiguous groups minimising sum(count_c * width_c) + c.

    ``max_group`` caps the processors per column (a column of the n x n
    grid cannot stack more than n rectangles).  Returns the group sizes in
    order.  The exact DP is cubic in the processor count, so past
    ``_EXACT_DP_LIMIT`` processors the sqrt-shaped greedy grouping takes
    over — same contiguity and feasibility contract, near-optimal
    half-perimeter at cluster scale.

    The DP runs one array step per column count ``k``: the best cost of
    the first ``j`` processors in ``k`` columns is the minimum over the
    last column's start ``m`` of ``cost(m, k - 1) + (j - m) * width``,
    evaluated for every ``(j, m)`` at once; the first minimising ``m``
    wins, as in an ascending scan keeping strict improvements.
    """
    areas = np.asarray(areas_sorted, dtype=float)
    p = areas.size
    if max_group < 1:
        raise ValueError(f"max_group must be >= 1, got {max_group}")
    k_limit = p if max_columns is None else min(p, max_columns)
    if p > _EXACT_DP_LIMIT:
        return _column_groups_heuristic(areas, max_group, k_limit)
    prefix = np.concatenate(([0.0], np.cumsum(areas)))
    span = np.arange(p + 1)[:, None] - np.arange(p + 1)[None, :]  # j - m
    # cost of the column m..j-1 on top of a split at m; +inf where the
    # column would be empty or hold more than max_group processors
    step = np.where(
        (span >= 1) & (span <= max_group),
        span * (prefix[:, None] - prefix[None, :]),
        np.inf,
    )
    cost = np.full(p + 1, np.inf)  # cost[j]: first j processors, k - 1 columns
    cost[0] = 0.0
    last = np.full(k_limit + 1, np.inf)  # cost of all p processors in k columns
    back = np.empty((k_limit + 1, p + 1), dtype=np.intp)
    rows = np.arange(p + 1)
    for k in range(1, k_limit + 1):
        total = cost[None, :] + step
        back[k] = total.argmin(axis=1)
        cost = total[rows, back[k]]
        last[k] = cost[p]
    score = last[1:] + np.arange(1, k_limit + 1)
    if not np.isfinite(score).any():
        raise ValueError(
            f"cannot arrange {p} processors with at most {max_group} per "
            f"column and {k_limit} columns"
        )
    best_k = int(score.argmin()) + 1
    groups: list[int] = []
    j, k = p, best_k
    while k > 0:
        m = int(back[k, j])
        groups.append(j - m)
        j, k = m, k - 1
    groups.reverse()
    return groups


def _block_counts(allocations) -> np.ndarray:
    """Allocations as an int64 array; whole-number floats are accepted."""
    values = np.asarray(allocations)
    if values.dtype.kind == "f":
        bad = np.flatnonzero(
            ~np.isfinite(values) | (values != np.floor(values)) | (np.abs(values) > 2.0**53)
        )
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"allocation {i} is {values[i]}; expected a whole number of blocks"
            )
    elif values.dtype.kind not in "biu":
        raise TypeError(f"allocations must be whole numbers, got {values.dtype}")
    return values.astype(np.int64).reshape(-1)


def column_based_partition(allocations: list[int], n: int) -> ColumnPartition:
    """Arrange integer block allocations into a column-based 2D partition.

    Parameters
    ----------
    allocations:
        Blocks per processor, summing to ``n * n``.  Zero allocations yield
        empty (zero-area) rectangles.  Whole-number floats are accepted;
        any other float raises ``ValueError`` naming its index.
    n:
        Matrix size in blocks (the matrix is ``n x n`` blocks).
    """
    check_positive_int("n", n)
    blocks = _block_counts(allocations)
    if (blocks < 0).any():
        raise ValueError("allocations must be non-negative")
    cells = n * n
    total = sum(blocks.tolist())  # exact: an int64 sum could wrap
    if total != cells:
        raise ValueError(f"allocations sum to {total}, expected {cells}")
    active = np.flatnonzero(blocks > 0)
    if not active.size:
        raise ValueError("at least one allocation must be positive")
    if active.size > cells:
        raise ValueError(
            f"{active.size} non-empty allocations cannot tile an "
            f"{n} x {n} grid"
        )
    order = active[np.lexsort((active, -blocks[active]))]
    areas = blocks[order]
    groups = _column_groups(areas / cells, max_group=n, max_columns=n)
    column = np.repeat(np.arange(len(groups)), groups)
    first = np.cumsum(groups) - groups

    # --- integer column widths -----------------------------------------
    widths = _largest_remainder(
        np.add.reduceat(areas, first) / cells * n,
        np.zeros(len(groups), dtype=np.intp),
        n,
        np.ones(len(groups), dtype=np.int64),
    )

    # --- integer heights within each column ----------------------------
    heights = _largest_remainder(
        areas / widths[column], column, n, np.ones(areas.size, dtype=np.int64)
    )

    # --- rectangles, indexed by processor ------------------------------
    below = np.cumsum(heights) - heights
    coords = np.zeros((4, blocks.size), dtype=np.int64)  # col, row, width, height
    coords[0, order] = (np.cumsum(widths) - widths)[column]
    coords[1, order] = below - below[first][column]
    coords[2, order] = widths[column]
    coords[3, order] = heights
    # zero-allocation processors keep empty rectangles at the origin
    rects = tuple(map(Rectangle, range(blocks.size), *coords.tolist()))
    _certify_tiling(n, coords, rects)
    return ColumnPartition(
        n=n, rectangles=rects, column_widths=tuple(widths.tolist())
    )
