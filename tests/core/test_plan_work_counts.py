"""Work counts of a 10 000-device integer plan, free of timing noise.

Rounding and column geometry run over arrays: the block times of every
device come from one stacked kernel and the arrangement builds each
rectangle once.  These tests count the calls that a per-device Python
loop would make — ``SpeedFunction.time`` and ``Rectangle.__init__`` — on
a fresh model set shaped like the ``cluster_plan`` benchmark, so a change
that brings such a loop back fails here whatever the machine's speed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.geometry import Rectangle, column_based_partition
from repro.core.integer import round_partition
from repro.core.solver import Solver
from repro.core.speed_function import SpeedFunction

from tests.oracles.integer import round_partition as oracle_round_partition

DEVICES = 10_000
N = 1000  # the matrix is N x N blocks


def _ramped(peak: float, half: float) -> SpeedFunction:
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(sizes, [peak * s / (s + half) for s in sizes])


def _fresh_models(seed: int) -> list[SpeedFunction]:
    rng = np.random.default_rng(seed)
    i = np.arange(DEVICES)
    peaks = 20.0 * 1.05 ** (i % 100) * rng.uniform(0.9, 1.1, DEVICES)
    halves = (10.0 + (7 * i) % 90) * rng.uniform(0.9, 1.1, DEVICES)
    return [_ramped(float(p), float(h)) for p, h in zip(peaks, halves)]


@pytest.fixture(scope="module")
def plan():
    models = _fresh_models(seed=1)
    continuous = list(Solver().solve(models, float(N * N)).allocations)
    return models, continuous


def _counting(monkeypatch, cls, name: str) -> list[int]:
    calls = [0]
    original = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


def test_rounding_makes_no_per_device_scalar_time_calls(plan, monkeypatch):
    models, continuous = plan
    want = oracle_round_partition(models, continuous, N * N)  # ~15k time() calls
    calls = _counting(monkeypatch, SpeedFunction, "time")
    blocks = round_partition(models, continuous, N * N)
    assert blocks == want
    floors = [math.floor(x) for x in continuous]
    third = sum(1 for b, f in zip(blocks, floors) if b - f >= 3)
    assert third > 0  # the shape does hand some devices three leftovers
    assert calls[0] <= third


def test_geometry_builds_each_rectangle_once(plan, monkeypatch):
    models, continuous = plan
    blocks = round_partition(models, continuous, N * N)
    calls = _counting(monkeypatch, Rectangle, "__init__")
    part = column_based_partition(blocks, N)
    assert calls[0] == DEVICES
    assert len(part.rectangles) == DEVICES
