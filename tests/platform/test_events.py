"""The shared platform-event layer: rule lookup, draw helpers, one draw site."""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

import repro.platform
from repro.platform.drift import DriftSpec
from repro.platform.events import RuleTable, integral, normals, uniforms
from repro.platform.faults import FaultSpec
from repro.platform.noise import NoiseModel
from repro.util.rng import RngStream

from tests.oracles import platform_events as oracle

PLATFORM = Path(repro.platform.__file__).parent


def _leaf_parts(leaf):
    return leaf if isinstance(leaf, tuple) else (leaf,)


def test_only_events_references_stream_keys():
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
            if name in ("stream_keys", "key_uniforms"):
                users.add(path.name)
    assert users == {"events.py"}


class TestDrawHelpers:
    RNG = RngStream(17).child("events")

    def _key(self, *names):
        return oracle.stream_key(self.RNG.seed, *self.RNG.path, *names)

    def test_uniforms_equal_the_scalar_oracle(self):
        leaves = ["a", ("b", "c"), ("d",), 4]
        draws = uniforms(self.RNG, ("dev", "x1.0"), leaves)
        assert draws.tolist() == [
            oracle.key_uniform(self._key("dev", "x1.0", *_leaf_parts(leaf)))
            for leaf in leaves
        ]

    def test_empty_leaf_is_the_prefix_stream(self):
        assert uniforms(self.RNG, ("p",), [()])[0] == oracle.key_uniform(
            self._key("p")
        )

    def test_normals_take_one_or_per_leaf_sigma(self):
        leaves = [("u", "p0"), ("u", "p1"), ("v", "p0")]
        sigmas = [0.1, 0.5, 2.0]
        per_leaf = normals(self.RNG, ("panel",), leaves, sigmas)
        shared = normals(self.RNG, ("panel",), leaves, 0.5)
        for i, leaf in enumerate(leaves):
            key = self._key("panel", *leaf)
            assert per_leaf[i] == oracle.key_normal(key, sigmas[i])
            assert shared[i] == oracle.key_normal(key, 0.5)

    def test_no_leaves_draw_nothing(self):
        assert uniforms(self.RNG, (), []).shape == (0,)
        assert normals(self.RNG, (), [], 0.3).shape == (0,)

    def test_a_draw_does_not_depend_on_its_siblings(self):
        alone = uniforms(self.RNG, ("k",), ["r3"])[0]
        among = uniforms(self.RNG, ("k",), ["r0", "r1", "r2", "r3"])[3]
        assert alone == among

    def test_prefix_and_leaf_split_never_moves_a_draw(self):
        leaves = [("x1.0", "busy0", f"r{i}") for i in range(6)]
        whole = normals(self.RNG, ("kernel",), leaves, 0.2)
        split = normals(self.RNG, ("kernel", "x1.0", "busy0"), [f"r{i}" for i in range(6)], 0.2)
        assert whole.tolist() == split.tolist()


class TestSigmaValidation:
    """``normals`` checks ``sigma`` once, at the draw site."""

    RNG = RngStream(5)

    def test_per_leaf_sigma_must_match_the_leaves(self):
        with pytest.raises(ValueError, match="one value per leaf"):
            normals(self.RNG, ("p",), ["x", "y", "z"], [0.1, 0.2])
        with pytest.raises(ValueError, match="one value per leaf"):
            normals(self.RNG, ("p",), ["x"], [0.1, 0.2])

    def test_sigma_must_be_scalar_or_one_dimensional(self):
        with pytest.raises(ValueError, match="sigma"):
            normals(self.RNG, ("p",), ["x", "y"], [[0.1, 0.2]])

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, [0.1, math.nan], -0.1, [0.1, -0.2]]
    )
    def test_sigma_must_be_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            normals(self.RNG, ("p",), ["x", "y"], bad)

    def test_zero_dimensional_array_is_a_scalar(self):
        got = normals(self.RNG, ("p",), ["x", "y"], np.array(0.3))
        assert got.tolist() == normals(self.RNG, ("p",), ["x", "y"], 0.3).tolist()

    def test_zero_sigma_draws_zero(self):
        assert not normals(self.RNG, ("p",), ["x", "y"], 0.0).any()


class TestStreamStatistics:
    """Fixed-sample distribution checks at n = 20,000 (about 4-sigma bounds)."""

    N = 20_000
    SIGMA = 0.05

    @pytest.fixture(scope="class")
    def logs(self):
        noise = NoiseModel(RngStream(2024).child("bench"), sigma=self.SIGMA)
        factors, _ = noise.draw(("kernel", "x100.0", "busy0"), [f"r{i}" for i in range(self.N)])
        return np.log(factors)

    def test_log_factor_mean_and_variance(self, logs):
        assert abs(logs.mean()) < 4 * self.SIGMA / math.sqrt(self.N)
        rel_se = math.sqrt(2.0 / (self.N - 1))
        assert abs(logs.var(ddof=1) / self.SIGMA**2 - 1.0) < 4 * rel_se

    def test_ks_distance_against_the_normal(self, logs):
        z = np.sort(logs / self.SIGMA)
        cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
        ranks = np.arange(1, self.N + 1) / self.N
        distance = max((ranks - cdf).max(), (cdf - (ranks - 1.0 / self.N)).max())
        assert distance < 1.95 / math.sqrt(self.N)  # the 0.1% critical value

    def test_outlier_share_matches_outlier_prob(self):
        p = 0.1
        noise = NoiseModel(RngStream(7).child("bench"), sigma=0.02, outlier_prob=p)
        _, outliers = noise.draw(("k",), [f"r{i}" for i in range(self.N)])
        assert abs(outliers.mean() - p) < 4 * math.sqrt(p * (1 - p) / self.N)

    def test_sibling_streams_are_uncorrelated(self):
        rng = RngStream(11).child("bench")
        reps = [f"r{i}" for i in range(self.N)]
        a = normals(rng, ("kernel", "x100.0", "busy0"), reps, 1.0)
        b = normals(rng, ("kernel", "x101.0", "busy0"), reps, 1.0)
        bound = 4 / math.sqrt(self.N)
        assert abs(np.corrcoef(a, b)[0, 1]) < bound  # same rep, sibling size
        assert abs(np.corrcoef(a[:-1], a[1:])[0, 1]) < bound  # adjacent reps
        u = uniforms(rng, ("kernel", "x100.0", "busy0"), reps)
        assert abs(np.corrcoef(u, a)[0, 1]) < bound  # slot 0 vs the normal


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
