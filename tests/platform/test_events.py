"""The shared platform-event layer: rule lookup, draw helpers, one draw site."""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import pytest

import repro.platform
from repro.platform.drift import DriftSpec
from repro.platform.events import RuleTable, integral, normals, uniforms
from repro.platform.faults import FaultSpec
from repro.platform.noise import NoiseModel
from repro.util.rng import RngStream

PLATFORM = Path(repro.platform.__file__).parent


def _walk(rng: RngStream, *names: object) -> RngStream:
    for name in names:
        rng = rng.child(str(name))
    return rng


def test_only_events_references_sibling_generators():
    users = set()
    for path in sorted(PLATFORM.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name == "sibling_generators":
                users.add(path.name)
    assert users == {"events.py"}


class TestDrawHelpers:
    RNG = RngStream(17).child("events")

    def test_uniforms_equal_the_walked_streams(self):
        leaves = ["a", ("b", "c"), ("d",), 4]
        draws = uniforms(self.RNG, ("dev", "x1.0"), leaves)
        walked = [
            _walk(self.RNG, "dev", "x1.0", *leaf).uniform()
            if isinstance(leaf, tuple)
            else _walk(self.RNG, "dev", "x1.0", leaf).uniform()
            for leaf in leaves
        ]
        assert draws.tolist() == walked

    def test_empty_leaf_is_the_prefix_stream(self):
        assert uniforms(self.RNG, ("p",), [()])[0] == _walk(self.RNG, "p").uniform()

    def test_normals_take_one_or_per_leaf_sigma(self):
        leaves = [("u", "p0"), ("u", "p1"), ("v", "p0")]
        sigmas = [0.1, 0.5, 2.0]
        per_leaf = normals(self.RNG, ("panel",), leaves, sigmas)
        shared = normals(self.RNG, ("panel",), leaves, 0.5)
        for i, leaf in enumerate(leaves):
            assert per_leaf[i] == _walk(self.RNG, "panel", *leaf).normal(0.0, sigmas[i])
            assert shared[i] == _walk(self.RNG, "panel", *leaf).normal(0.0, 0.5)

    def test_no_leaves_draw_nothing(self):
        assert uniforms(self.RNG, (), []).shape == (0,)
        assert normals(self.RNG, (), [], 0.3).shape == (0,)

    def test_a_draw_does_not_depend_on_its_siblings(self):
        alone = uniforms(self.RNG, ("k",), ["r3"])[0]
        among = uniforms(self.RNG, ("k",), ["r0", "r1", "r2", "r3"])[3]
        assert alone == among


@dataclass(frozen=True)
class _Profile:
    inert: bool = True


@dataclass(frozen=True)
class _Table(RuleTable[_Profile]):
    unmatched: ClassVar[_Profile] = _Profile()


class TestRuleTable:
    def test_precedence_exact_then_substring_then_wildcard(self):
        star, sub, exact = _Profile(False), _Profile(False), _Profile(False)
        table = _Table(rules=(("*", star), ("gpu", sub), ("gpu0", exact)))
        assert table.for_device("gpu0") is exact
        assert table.for_device("kernel[gpu1]") is sub
        assert table.for_device("cpu") is star
        assert not table.inert

    def test_first_match_wins_within_a_tier(self):
        first, second = _Profile(False), _Profile(True)
        table = _Table(rules=(("Tesla", first), ("C870", second)))
        assert table.for_device("Tesla C870") is first

    def test_unmatched_device_gets_the_class_default(self):
        table = _Table(rules=(("gpu0", _Profile(False)),))
        assert table.for_device("cpu") is _Table.unmatched
        assert _Table().inert

    def test_tables_stay_distinct_value_objects(self):
        assert FaultSpec() == FaultSpec()
        assert FaultSpec() != DriftSpec()
        assert hash(DriftSpec()) == hash(DriftSpec())


class TestIntegral:
    def test_whole_numbers_become_ints(self):
        assert integral(13.0) == 13 and isinstance(integral(13.0), int)
        assert integral(-3.0) == -3

    @pytest.mark.parametrize("value", [13.7, math.inf, -math.inf, math.nan])
    def test_rejects_fractions_and_non_finite(self, value):
        with pytest.raises(ValueError):
            integral(value)


class TestEmptyContextPerturb:
    """``perturb`` with no context draws from a fresh root stream each call."""

    def test_repeated_calls_are_equal_and_match_the_batch(self):
        noise = NoiseModel(RngStream(3).child("bench"), sigma=0.02)
        draws = [noise.perturb(1.0) for _ in range(3)]
        assert draws[0] == draws[1] == draws[2]
        assert draws[0] == noise.perturb_batch(1.0, (), [()])[0]

    def test_with_outliers(self):
        noise = NoiseModel(
            RngStream(3).child("bench"), sigma=0.1, outlier_prob=0.5
        )
        batch = noise.perturb_batch(2.0, (), [()])[0]
        assert [noise.perturb(2.0) for _ in range(3)] == [batch] * 3

    def test_draw_does_not_advance_the_model_stream(self):
        noise = NoiseModel(RngStream(3).child("bench"), sigma=0.02)
        noise.perturb(1.0)
        assert noise.rng.uniform() == RngStream(3).child("bench").uniform()
