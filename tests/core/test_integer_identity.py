"""Array rounding equals the heap oracle, and the block-time kernel equals ``time``.

:func:`repro.core.integer.round_partition` replays the one-block-at-a-time
heap hand-out in bulk (:func:`~repro.core.integer.heap_pops`) and reads
block times from :meth:`BatchSpeedModels.times_at`.  The oracle is the
heap implementation it replaced (``tests/oracles/integer.py``), which
calls :meth:`SpeedFunction.time` per heap entry.  The allocation lists
must be *equal* — not close — over random model sets, including ties,
zero and overshooting allocations, bounded caps, non-monotone time
functions and block counts that land exactly on model knots.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.batch import BatchSpeedModels
from repro.core.integer import heap_pops, round_partition
from repro.core.partition import partition_fpm
from repro.core.speed_function import SpeedFunction

from tests.oracles.integer import round_partition as oracle_round_partition

pytestmark = pytest.mark.property


@st.composite
def knotted_function(draw) -> SpeedFunction:
    """1-5 samples at whole block counts, arbitrary speeds (time may dip)."""
    points = draw(st.integers(min_value=1, max_value=5))
    sizes = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=300),
                min_size=points,
                max_size=points,
                unique=True,
            )
        )
    )
    speeds = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=100.0),
            min_size=points,
            max_size=points,
        )
    )
    return SpeedFunction.from_points(
        [float(x) for x in sizes], speeds, bounded=draw(st.booleans())
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def rounding_problem(draw):
    """(models, continuous, total) in one of several adversarial shapes."""
    p = draw(st.integers(min_value=1, max_value=2000))
    pool = draw(st.lists(knotted_function(), min_size=1, max_size=6))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = draw(st.sampled_from(["knots", "ties", "zeros", "random", "solved"]))
    fns = [pool[rng.randrange(len(pool))] for _ in range(p)]
    if shape == "knots":
        # floors one or two blocks below a knot: the next-block times
        # are evaluated exactly at the knots
        continuous = [
            max(0.0, rng.choice(fn.sizes.tolist()) - rng.choice((0, 1, 2)) + rng.random() * 0.5)
            for fn in fns
        ]
        total = sum(math.floor(x) for x in continuous) + rng.randint(0, p)
    elif shape == "ties":
        fns = [pool[0]] * p
        continuous = [float(rng.randint(0, 20))] * p
        total = sum(math.floor(x) for x in continuous) + rng.randint(0, 2 * p)
    elif shape == "zeros":
        # every block is a leftover: deep per-device hand-outs
        continuous = [0.0] * p
        total = rng.randint(0, 3 * p)
    elif shape == "random":
        continuous = [rng.uniform(-2.0, 320.0) for _ in range(p)]
        floors = sum(max(0, math.floor(x)) for x in continuous)
        # below the floors exercises the overshoot trim
        total = rng.randint(max(0, floors - p), floors + p)
    else:
        caps = sum(fn.max_size if fn.bounded else math.inf for fn in fns)
        total = rng.randint(1, max(1, int(min(caps, 40.0 * p))))
        continuous = partition_fpm(fns, float(total))
    return fns, continuous, total


@given(rounding_problem())
@example(([SpeedFunction.constant(1.0)] * 3, [0.0, 0.0, 0.0], 7))
@example(
    (
        [SpeedFunction.from_points([1.0, 50.0], [100.0, 100.0], bounded=True)] * 2,
        [50.0, 50.0],
        101,
    )
)
def test_round_partition_equals_heap_oracle(problem):
    fns, continuous, total = problem
    assert _outcome(round_partition, fns, continuous, total) == _outcome(
        oracle_round_partition, fns, continuous, total
    )


@given(
    st.lists(knotted_function(), min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=40),
)
def test_times_at_rows_equal_scalar_time_bitwise(fns, sizes):
    """Element k is fns[rows[k]].time(sizes[k]), at and between knots."""
    rows = [k % len(fns) for k in range(len(sizes))]
    # bounded models are only asked within their range
    xs = [
        float(min(x, fns[r].max_size) if fns[r].bounded else x)
        for x, r in zip(sizes, rows)
    ]
    knots = [(float(x), r) for r, fn in enumerate(fns) for x in fn.sizes.tolist()]
    xs += [x for x, _ in knots]
    rows += [r for _, r in knots]
    got = BatchSpeedModels(tuple(fns)).times_at(np.array(xs), np.array(rows))
    want = [fns[r].time(x) for x, r in zip(xs, rows)]
    assert got.tolist() == want


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_heap_pops_equals_a_literal_heap(rooms, take, seed):
    """Bulk replay of a heap with arbitrary (non-monotone) keys."""
    import heapq

    rng = random.Random(seed)
    keys = {(j, lv): float(rng.randint(0, 5)) for j, r in enumerate(rooms) for lv in range(1, r + 1)}
    heap = [(keys[j, 1], j) for j, r in enumerate(rooms) if r]
    heapq.heapify(heap)
    want = [0] * len(rooms)
    for _ in range(take):
        if not heap:
            break
        _, j = heapq.heappop(heap)
        want[j] += 1
        if want[j] < rooms[j]:
            heapq.heappush(heap, (keys[j, want[j] + 1], j))
    got = heap_pops(
        [take],
        np.zeros(len(rooms), dtype=np.intp),
        np.array(rooms),
        lambda j, lv: np.array([keys[a, b] for a, b in zip(j.tolist(), lv.tolist())]),
    )
    assert got.tolist() == want


class TestEdges:
    def test_nan_names_its_index(self):
        fns = [SpeedFunction.constant(1.0), SpeedFunction.constant(2.0)]
        with pytest.raises(ValueError, match="allocation 0 is nan"):
            round_partition(fns, [math.nan, 5.0], 10)

    def test_inf_names_its_index(self):
        fns = [SpeedFunction.constant(1.0), SpeedFunction.constant(2.0)]
        with pytest.raises(ValueError, match="allocation 1 is inf"):
            round_partition(fns, [5.0, math.inf], 10)

    def test_negative_inf_is_rejected_too(self):
        with pytest.raises(ValueError, match="allocation 0 is -inf"):
            round_partition([SpeedFunction.constant(1.0)], [-math.inf], 1)

    def test_no_models(self):
        assert round_partition([], [], 0) == []
        with pytest.raises(ValueError, match="capacity"):
            round_partition([], [], 3)

    def test_numbers_and_fpms_are_normalised(self):
        assert round_partition([1.0, 3.0], [0.0, 0.0], 4) == [1, 3]
