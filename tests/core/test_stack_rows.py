"""One-pass stacking of solver rows equals per-model stacking, bit for bit.

:class:`~repro.core.batch.BatchSpeedModels` builds its padded matrices
with one NumPy pass per distinct sample count.  The oracle here is the
straightforward build: each model's own row (``row_params`` of
``tests/oracles/batch.py``, the one-model case) copied into the padded matrices one model at a time.
Every matrix must agree exactly — padding included — across mixed sample
counts, bounded and unbounded models, and non-monotone models (whose
irregular rows fall back to the scalar inverse in every kernel).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.batch import BatchSpeedModels
from repro.core.speed_function import SpeedFunction, SpeedSample

from tests.oracles.batch import row_params

pytestmark = pytest.mark.property


@st.composite
def raw_speed_function(draw) -> SpeedFunction:
    """1 to 6 samples, arbitrary speeds: the time function may dip."""
    points = draw(st.integers(min_value=1, max_value=6))
    sizes = sorted(
        draw(
            st.lists(
                st.floats(min_value=0.5, max_value=1000.0),
                min_size=points,
                max_size=points,
                unique=True,
            )
        )
    )
    speeds = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=500.0),
            min_size=points,
            max_size=points,
        )
    )
    return SpeedFunction(
        [SpeedSample(x, s) for x, s in zip(sizes, speeds)],
        bounded=draw(st.booleans()),
    )


models = st.lists(raw_speed_function(), min_size=1, max_size=12)


def _stacked_one_at_a_time(fns):
    """The reference build: per-model rows copied in one by one."""
    rows = [row_params(fn) for fn in fns]
    p = len(fns)
    width = max(r[0].size for r in rows)
    pad = max(width, 2)
    out = {
        "_kt": np.full((p, pad), np.inf),
        "_sizes": np.full((p, pad), np.inf),
        "_speeds": np.zeros((p, pad)),
        "_table": np.zeros((p, width + 1, 4)),
        "_nseg": np.empty(p, dtype=np.intp),
        "_caps": np.empty(p),
        "_s_first": np.empty(p),
        "_s_last": np.empty(p),
    }
    irregular = []
    for i, (fn, (sizes, speeds, knot_times, table, monotone)) in enumerate(
        zip(fns, rows)
    ):
        m = sizes.size
        out["_kt"][i, :m] = knot_times
        out["_sizes"][i, :m] = sizes
        out["_speeds"][i, :m] = speeds
        out["_table"][i, : m + 1] = table
        out["_nseg"][i] = m
        out["_caps"][i] = sizes[-1] if fn.bounded else np.inf
        out["_s_first"][i] = speeds[0]
        out["_s_last"][i] = speeds[-1]
        if not monotone:
            irregular.append(i)
    out["_irregular"] = tuple(irregular)
    return out


def _assert_matrices_equal(batch: BatchSpeedModels, expected: dict) -> None:
    for name, want in expected.items():
        got = getattr(batch, name)
        if name == "_irregular":
            assert got == want
            continue
        assert got.shape == want.shape, name
        assert got.dtype == want.dtype, name
        # bit patterns, not ==: 0.0 and -0.0 must not pass for each other
        assert got.tobytes() == want.tobytes(), name


@given(models)
def test_one_pass_matrices_equal_per_model_stacking(fns):
    batch = BatchSpeedModels(tuple(fns))
    _assert_matrices_equal(batch, _stacked_one_at_a_time(fns))
    # the oracle shares the row formula; the model's own knot-time check
    # is independent of it
    assert batch._irregular == tuple(
        i for i, fn in enumerate(fns) if fn._knot_times() is None
    )


@given(models, st.data())
def test_times_at_equals_the_scalar_time_kernel(fns, data):
    """Element ``i`` of ``times_at`` is :meth:`SpeedFunction.time`, bit for bit.

    Drift control prices its ideal panel times with ``times_at``; the
    sizes include zero, knots and both sides of the sampled range
    (bounded models only up to their last sample, where ``time`` is
    defined).
    """
    batch = BatchSpeedModels(tuple(fns))
    sizes = [
        data.draw(
            st.one_of(
                st.just(0.0),
                st.sampled_from(fn.sizes.tolist()),
                st.floats(
                    min_value=1e-3,
                    max_value=fn.max_size if fn.bounded else 2000.0,
                ),
            )
        )
        for fn in fns
    ]
    want = np.array([fn.time(x) for fn, x in zip(fns, sizes)])
    assert batch.times_at(sizes).tobytes() == want.tobytes()


@st.composite
def updates(draw):
    """Models, replacements for some of them, and the indices dropped."""
    fns = draw(models)
    p = len(fns)
    replaced = draw(st.lists(st.integers(0, p - 1), unique=True, max_size=p))
    reps = {i: draw(raw_speed_function()) for i in replaced}
    keep = [i for i in range(p) if i not in reps]
    max_drop = len(keep) if reps else len(keep) - 1
    dropped = (
        draw(st.lists(st.sampled_from(keep), unique=True, max_size=max_drop))
        if max_drop > 0
        else []
    )
    return fns, reps, dropped


#: A bounded row whose time dips (bisection inverse) and ends below 1.0.
SMALL_BOUNDED = SpeedFunction.from_points([0.5, 0.75], [1.0, 2.0], bounded=True)
UNIT = SpeedFunction.from_points([1.0], [1.0])


@given(updates())
@example(([UNIT] * 8, {**{i: UNIT for i in range(6)}, 6: SMALL_BOUNDED}, []))
def test_with_updates_on_one_pass_batch_equals_fresh_build(case):
    """Replacing and dropping rows equals stacking the new list afresh.

    The derived batch may keep the parent's padding width, so compare
    every model's own columns plus every kernel's output.
    """
    fns, reps, dropped = case
    batch = BatchSpeedModels(tuple(fns))
    new_fns = [reps.get(i, fn) for i, fn in enumerate(fns) if i not in dropped]
    updated = batch.with_updates(reps, dropped)
    fresh = BatchSpeedModels(tuple(new_fns))

    assert updated.fns == fresh.fns
    assert updated._irregular == fresh._irregular
    for name in ("_nseg", "_caps", "_s_first", "_s_last"):
        assert getattr(updated, name).tobytes() == getattr(fresh, name).tobytes()
    for i, m in enumerate(fresh._nseg.tolist()):
        for name in ("_kt", "_sizes", "_speeds"):
            a, b = getattr(updated, name)[i, :m], getattr(fresh, name)[i, :m]
            assert a.tobytes() == b.tobytes(), name
        assert (
            updated._table[i, : m + 1].tobytes()
            == fresh._table[i, : m + 1].tobytes()
        )
    for t in (1e-3, 0.7, 5.0, 80.0):
        assert (
            updated.allocations_at(t).tobytes()
            == fresh.allocations_at(t).tobytes()
        )
    sizes = np.minimum(50.0, fresh.caps)
    assert updated.times_at(sizes).tobytes() == fresh.times_at(sizes).tobytes()


@given(raw_speed_function(), st.floats(min_value=1e-3, max_value=100.0))
@example(SMALL_BOUNDED, 0.7)
def test_bisection_inverses_stay_in_the_model_range(fn, budget):
    """Both bisections start inside a bounded model's range.

    Non-monotone rows invert by bisection; a bounded row ending below
    size 1.0 must not be evaluated beyond its last sample.
    """
    assert SMALL_BOUNDED._knot_times() is None  # the bisection path
    cap = fn.max_size if fn.bounded else math.inf
    x = fn._invert_time_bisect(budget)
    assert 0.0 <= x <= cap
    assert x == 0.0 or fn.time(x) <= budget
    assert 0.0 < fn._ray_bisect(1.0 / budget, math.inf) <= cap


def test_build_leaves_models_untouched():
    """The one-pass build caches nothing on the models it stacks."""
    fns = tuple(
        SpeedFunction.from_points([1.0, 2.0 + k], [3.0, 4.0]) for k in range(3)
    )
    BatchSpeedModels(fns)
    assert all(getattr(fn, "_solver_row_cache", None) is None for fn in fns)


def test_mixed_sample_counts_scatter_to_their_own_rows():
    fns = (
        SpeedFunction.from_points([1.0, 2.0, 3.0], [1.0, 1.5, 1.6]),
        SpeedFunction.constant(2.0),
        SpeedFunction.from_points([4.0, 8.0], [5.0, 6.0], bounded=True),
        SpeedFunction.from_points([1.0, 5.0, 9.0], [2.0, 2.5, 2.6]),
    )
    batch = BatchSpeedModels(fns)
    assert batch._nseg.tolist() == [3, 1, 2, 3]
    assert batch.caps.tolist() == [np.inf, np.inf, 8.0, np.inf]
    _assert_matrices_equal(batch, _stacked_one_at_a_time(fns))
