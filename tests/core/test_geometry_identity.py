"""Array column geometry equals the scalar oracle; the parity certificate is exact.

:func:`repro.core.geometry.column_based_partition` sorts, groups and rounds
over NumPy arrays and certifies its tiling by corner parity.  The oracle
is the loop implementation it replaced (``tests/oracles/geometry.py``):
results must be *equal* ``ColumnPartition`` objects for any processor
count and grid, through both the exact grouping DP and the greedy
grouping beyond it.  The certificate is checked against a brute-force
painting of the grid and against the old column sweep.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core import geometry
from repro.core.geometry import ColumnPartition, Rectangle, column_based_partition

from tests.oracles import geometry as oracle

pytestmark = pytest.mark.property


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def allocation_problem(draw):
    """(allocations, n) with 1-1000 blocks per side and 1-2000 processors."""
    n = draw(st.integers(min_value=1, max_value=1000))
    p = draw(st.integers(min_value=1, max_value=min(2000, n * n)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["skewed", "ties", "spread"]))
    cells = n * n
    if shape == "ties":
        q, r = divmod(cells, p)
        allocs = [q + (i < r) for i in range(p)]
    else:
        power = 3.0 if shape == "skewed" else 0.2
        weights = [rng.random() ** power + 1e-9 for _ in range(p)]
        scale = (cells - p) / sum(weights)
        allocs = [1 + int(w * scale) for w in weights]
        allocs[rng.randrange(p)] += cells - sum(allocs)
    zeros = draw(st.integers(min_value=0, max_value=3))
    for _ in range(zeros):
        allocs.insert(rng.randrange(len(allocs) + 1), 0)
    return allocs, n


@given(allocation_problem())
@example(([1000, 210] + [17] * 22 + [16], 40))
@example(([1] * 4, 2))
@example(([7, 0, 9], 4))
def test_column_based_partition_equals_oracle(problem):
    allocs, n = problem
    assert _outcome(column_based_partition, allocs, n) == _outcome(
        oracle.column_based_partition, allocs, n
    )


@st.composite
def grouping_problem(draw):
    p = draw(st.integers(min_value=1, max_value=300))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        areas = [1.0 / p] * p
    else:
        areas = sorted((rng.random() ** 2 + 1e-6 for _ in range(p)), reverse=True)
        total = sum(areas)
        areas = [a / total for a in areas]
    max_group = draw(st.integers(min_value=1, max_value=p))
    max_columns = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=p)))
    return areas, max_group, max_columns


@given(grouping_problem())
def test_column_groups_equal_the_loop_dp(problem):
    """Exact DP (p <= 128) and greedy grouping (beyond) against the loops."""
    areas, max_group, max_columns = problem
    assert _outcome(geometry._column_groups, areas, max_group, max_columns) == _outcome(
        oracle._column_groups, areas, max_group, max_columns
    )


@given(
    st.lists(
        st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=1, max_size=9),
        min_size=1,
        max_size=6,
    ),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2),
)
def test_segmented_largest_remainder_equals_one_call_per_segment(segments, total, low):
    """Each segment rounds exactly as the scalar routine rounds it alone."""
    targets = [t for segment in segments for t in segment]
    seg = [s for s, segment in enumerate(segments) for _ in segment]
    minimum = [low] * len(targets)
    try:
        got = geometry._largest_remainder(targets, seg, total, minimum).tolist()
    except ValueError:
        got = None
    want: list[int] | None = []
    for segment in segments:
        try:
            want += oracle._largest_remainder(segment, total, [low] * len(segment))
        except ValueError:
            want = None
            break
    assert got == want


# ---------------------------------------------------------------------------
# the corner-parity certificate
# ---------------------------------------------------------------------------


def _paints_exactly(rects, n: int) -> bool:
    """Brute force: every grid cell covered by exactly one rectangle."""
    grid = np.zeros((n, n), dtype=int)
    for r in rects:
        if r.area == 0:
            continue
        if r.col + r.width > n or r.row + r.height > n:
            return False
        grid[r.col : r.col + r.width, r.row : r.row + r.height] += 1
    return bool((grid == 1).all())


def _certified(part: ColumnPartition) -> bool:
    try:
        part.validate_tiling()
    except ValueError:
        return False
    return True


def _swept(part: ColumnPartition) -> bool:
    try:
        oracle.validate_tiling(part)
    except ValueError:
        return False
    return True


@st.composite
def rectangle_set(draw):
    """Small grids: random rectangles, or a tiling with one perturbation."""
    n = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        count = draw(st.integers(min_value=0, max_value=8))
        rects = [
            Rectangle(
                owner=rng.randrange(4),  # duplicate owners allowed
                col=rng.randrange(n + 1),
                row=rng.randrange(n + 1),
                width=rng.randrange(n + 1),
                height=rng.randrange(n + 1),
            )
            for _ in range(count)
        ]
        return ColumnPartition(n=n, rectangles=tuple(rects), column_widths=())
    p = rng.randint(1, n * n)
    allocs = [1] * p
    for _ in range(n * n - p):
        allocs[rng.randrange(p)] += 1
    rects = list(oracle.column_based_partition(allocs, n).rectangles)
    k = rng.randrange(len(rects))
    r = rects[k]
    move = draw(st.sampled_from(["shift", "transpose", "swap_rows", "empty", "none"]))
    if move == "shift":  # same area: overlap + gap, or out of bounds
        dc, dr = rng.choice([(1, 0), (0, 1), (-1, 0), (0, -1)])
        if r.col + dc >= 0 and r.row + dr >= 0:
            rects[k] = Rectangle(r.owner, r.col + dc, r.row + dr, r.width, r.height)
    elif move == "transpose":  # same area, other shape
        rects[k] = Rectangle(r.owner, r.col, r.row, r.height, r.width)
    elif move == "swap_rows" and len(rects) > 1:
        other = rects[(k + 1) % len(rects)]
        rects[k] = Rectangle(r.owner, r.col, other.row, r.width, r.height)
    elif move == "empty":  # zero-area rectangles anywhere are ignored
        rects.append(Rectangle(r.owner, n, n, 0, rng.randrange(3)))
    return ColumnPartition(n=n, rectangles=tuple(rects), column_widths=())


@given(rectangle_set())
def test_parity_certificate_matches_painting_and_sweep(part):
    painted = _paints_exactly(part.rectangles, part.n)
    assert _certified(part) == painted
    assert _swept(part) == painted


@given(rectangle_set())
def test_exact_area_in_bounds_failures_report_an_overlap(part):
    n = part.n
    live = [r for r in part.rectangles if r.area]
    if sum(r.area for r in live) != n * n or any(
        r.col + r.width > n or r.row + r.height > n for r in live
    ):
        return
    if not _paints_exactly(part.rectangles, n):
        with pytest.raises(ValueError, match="overlap"):
            part.validate_tiling()


def test_certificate_rejects_gap_with_exact_area_beyond_the_grid():
    bad = ColumnPartition(
        n=2,
        rectangles=(
            Rectangle(0, 0, 0, 2, 1),
            Rectangle(1, 1, 1, 2, 1),  # sticks out by one column
        ),
        column_widths=(),
    )
    with pytest.raises(ValueError, match="exceeds the matrix bounds"):
        bad.validate_tiling()


def test_certificate_rejects_wrong_area():
    bad = ColumnPartition(n=2, rectangles=(Rectangle(0, 0, 0, 1, 2),), column_widths=())
    with pytest.raises(ValueError, match="cover 2 blocks, expected 4"):
        bad.validate_tiling()


# ---------------------------------------------------------------------------
# edges
# ---------------------------------------------------------------------------


class TestEdges:
    def test_fractional_allocation_names_its_index(self):
        with pytest.raises(ValueError, match="allocation 0 is 2.5"):
            column_based_partition([2.5, 1.5], 2)

    def test_nan_allocation_names_its_index(self):
        with pytest.raises(ValueError, match="allocation 1 is nan"):
            column_based_partition([4.0, float("nan")], 2)

    def test_integral_floats_are_accepted(self):
        assert column_based_partition([2.0, 2.0], 2) == column_based_partition([2, 2], 2)

    def test_numpy_integers_are_accepted(self):
        assert column_based_partition(np.array([3, 1]), 2) == column_based_partition(
            [3, 1], 2
        )

    def test_allocation_sum_cannot_wrap(self):
        # the three entries sum to 2**64 + 4, which int64 arithmetic wraps to 4
        with pytest.raises(ValueError, match="sum to 18446744073709551620"):
            column_based_partition([2**63 - 1, 2**63 - 1, 6], 2)

    def test_certificate_area_cannot_wrap(self):
        # a 2**32 x 2**32 rectangle has area 2**64, which int64 wraps to 0
        huge = ColumnPartition(
            n=2,
            rectangles=(Rectangle(0, 0, 0, 2, 2), Rectangle(1, 0, 0, 2**32, 2**32)),
            column_widths=(),
        )
        with pytest.raises(ValueError, match="cover"):
            huge.validate_tiling()
