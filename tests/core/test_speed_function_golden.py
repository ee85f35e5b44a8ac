"""Pinned outputs of the piecewise-linear speed function and its batch.

The speed function is the one object every partitioner, rounding step
and simulation reads.  This golden records, as ``float.hex``:

* ``speed``, ``time``, ``max_size_within_time`` and ``size_at_ray`` at
  zero, at every knot, between knots and beyond both ends;
* the sample arrays of ``scaled`` and ``with_monotonic_time``;
* :meth:`BatchSpeedModels.times_at`, for every model in order and for
  named rows, on a batch of all the functions, and ``round_partition``
  of their FPM partitions;

for a bounded, a single-sample, a non-monotone and two ``ramped``
(saturating) functions.  A refactor of ``core/`` must leave every value
bit-identical; a deliberate output change must regenerate the golden and
say why::

    PYTHONPATH=src python -m tests.core.test_speed_function_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.batch import BatchSpeedModels
from repro.core.integer import round_partition
from repro.core.partition import partition_fpm
from repro.core.speed_function import SpeedFunction, SpeedSample

GOLDEN = Path(__file__).parent / "golden_speed_function.json"


def ramped(peak: float, half: float) -> SpeedFunction:
    """A saturating speed function: ``peak * x / (x + half)`` at 5 knots."""
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes])


#: Every function the golden evaluates, by name.  The non-monotone one
#: has a speed spike, so its time dips (the bisection inverses run); the
#: others take the closed-form inverses.  The bounded one carries
#: measurement precisions, which derived copies must keep.
FUNCTIONS = {
    "ramped-a": ramped(100.0, 50.0),
    "ramped-b": ramped(913.7, 61.3),
    "bounded": SpeedFunction(
        [
            SpeedSample(x, s, r)
            for x, s, r in zip(
                (2.0, 10.7, 40.3, 100.9),
                (5.1, 12.7, 20.3, 21.9),
                (0.031, 0.0, 0.017, 0.25),
            )
        ],
        bounded=True,
    ),
    "single": SpeedFunction.constant(7.3, 3.1),
    "non-monotone": SpeedFunction.from_points(
        [1.3, 2.9, 3.7, 4.1, 9.9], [1.7, 5.3, 1.5, 8.9, 9.1]
    ),
}

#: Budgets and ray slopes are scaled from each function's own knot times.
TIME_FACTORS = (0.0, 0.3, 1.0, 1.7, 2.9)
CAPS = (np.inf, 57.3)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _sizes(fn: SpeedFunction) -> list[float]:
    """Zero, every knot, the midpoints, below the first and past the last."""
    knots = [s.size for s in fn.samples]
    mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    below = [knots[0] / 3]
    beyond = [] if fn.bounded else [knots[-1] * 1.7, knots[-1] * 11.0]
    return sorted([0.0, *below, *knots, *mids, *beyond])


def _budgets(fn: SpeedFunction) -> list[float]:
    knot_times = [s.size / s.speed for s in fn.samples]
    mids = [(a + b) / 2 for a, b in zip(knot_times, knot_times[1:])]
    return sorted(
        {f * t for f in TIME_FACTORS for t in knot_times} | set(mids)
    )


def _function_cases(name: str, fn: SpeedFunction):
    sizes = _sizes(fn)
    budgets = _budgets(fn)
    yield f"{name}/speed", [fn.speed(x) for x in sizes]
    yield f"{name}/time", [fn.time(x) for x in sizes]
    yield f"{name}/max_size_within_time", [
        fn.max_size_within_time(b) for b in budgets
    ]
    for cap in CAPS:
        yield f"{name}/size_at_ray/cap={cap}", [
            fn.size_at_ray(1.0 / b, cap) for b in budgets if b > 0.0
        ]
    for label, derived in (
        ("scaled", fn.scaled(1.37)),
        ("scaled-small", fn.scaled(0.013)),
        ("monotone", fn.with_monotonic_time()),
    ):
        samples = derived.samples
        yield f"{name}/{label}/sizes", [s.size for s in samples]
        yield f"{name}/{label}/speeds", [s.speed for s in samples]
        yield f"{name}/{label}/rel_precision", [s.rel_precision for s in samples]


def _batch_cases():
    fns = tuple(FUNCTIONS.values())
    batch = BatchSpeedModels(fns)
    columns = [_sizes(fn) for fn in fns]
    for k in range(max(len(c) for c in columns)):
        # one size per model: column k of each model's size list
        xs = np.array([c[min(k, len(c) - 1)] for c in columns])
        yield f"batch/times_at/{k}", batch.times_at(xs)
        # the golden was recorded when ``model_times`` was a second kernel
        # beside ``times_at``; its keys stay so the values can be compared
        yield f"batch/model_times/{k}", batch.times_at(xs)
    rows = np.array([i for i, c in enumerate(columns) for _ in c])
    flat = np.array([x for c in columns for x in c])
    yield "batch/model_times/rows", batch.times_at(flat, rows)


def _rounding_cases():
    monotone = [
        fn for fn in FUNCTIONS.values() if fn._knot_times() is not None
    ]
    models = monotone + [FUNCTIONS["non-monotone"].with_monotonic_time()]
    for total in (1, 7, 100, 1013, 4000):
        continuous = partition_fpm(models, float(total))
        yield f"partition_fpm/{total}", continuous
        yield f"round_partition/{total}", round_partition(models, continuous, total)


def _record() -> dict:
    cases = []
    for name, fn in FUNCTIONS.items():
        cases.extend(_function_cases(name, fn))
    cases.extend(_batch_cases())
    cases.extend(_rounding_cases())
    return {name: _hex(values) for name, values in cases}


@pytest.fixture(scope="module")
def record():
    return _record()


def test_every_value_matches_the_golden(record):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(record) == sorted(golden)
    for name in golden:
        assert record[name] == golden[name], name


def test_the_golden_spans_both_inverses_and_every_shape():
    """Closed-form and bisection inverses both run; bounded, unbounded
    and single-sample functions are all present."""
    fns = list(FUNCTIONS.values())
    assert any(fn._knot_times() is None for fn in fns)
    assert sum(fn._knot_times() is not None for fn in fns) >= 3
    assert any(fn.bounded for fn in fns)
    assert any(len(fn) == 1 for fn in fns)


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
