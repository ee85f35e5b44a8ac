"""Unit tests for the hierarchical RNG streams."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.platform.events as events_module
import repro.util.rng as rng_module
from repro.platform.drift import DriftModel
from repro.platform.faults import FaultPlan
from repro.platform.noise import NoiseModel
from repro.util.rng import (
    RngStream,
    component_keys,
    derive_seed,
    fold_keys,
    key_uniforms,
    stream_keys,
)

from tests.oracles import platform_events as oracle

names = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
    st.integers(-(10**6), 10**6),
    st.sampled_from(["r0", "x1.0"]),
)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_path_structure_matters(self):
        # ("ab",) and ("a", "b") must differ: separator is included
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestStreamKeys:
    """Counter-based stream keys: a left fold of component keys."""

    def test_tuple_leaf_spells_trailing_components(self):
        assert stream_keys(1, ("a",), [("b", "c")])[0] == oracle.stream_key(
            1, "a", "b", "c"
        )

    def test_list_leaf_rejected(self):
        with pytest.raises(TypeError, match="list"):
            stream_keys(1, ("a",), [["b", "c"]])

    def test_empty_leaf_is_the_prefix_stream(self):
        assert stream_keys(1, ("a", "b"), [()])[0] == oracle.stream_key(1, "a", "b")

    def test_mixed_leaf_lengths_match_the_scalar_fold(self):
        leaves = ["a", ("b", "c"), (), ("d", "e", "f"), 4]
        keys = stream_keys(7, ("p",), leaves)
        for leaf, key in zip(leaves, keys):
            parts = leaf if isinstance(leaf, tuple) else (leaf,)
            assert int(key) == oracle.stream_key(7, "p", *parts)

    def test_no_leaves(self):
        keys = stream_keys(1, ("a",), [])
        assert keys.shape == (0,) and keys.dtype == np.uint64
        assert key_uniforms(keys, 2).shape == (2, 0)

    def test_path_structure_and_seed_position_matter(self):
        assert stream_keys(1, (), ["ab"])[0] != stream_keys(1, ("a",), ["b"])[0]
        # the seed is the fold's first component, not interchangeable with
        # the first name
        assert stream_keys(5, (), ["7"])[0] != stream_keys(7, (), ["5"])[0]
        assert stream_keys(1, ("a",), ["b"])[0] != stream_keys(1, ("b",), ["a"])[0]

    @pytest.mark.property
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        path=st.lists(names, max_size=6),
        cut=st.integers(0, 6),
    )
    def test_split_invariance(self, seed, path, cut):
        """Where a path is split into prefix and leaf never moves its key."""
        cut = min(cut, len(path))
        whole = stream_keys(seed, (), [tuple(path)])[0]
        split = stream_keys(seed, path[:cut], [tuple(path[cut:])])[0]
        assert whole == split == oracle.stream_key(seed, *path)

    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        leaves=st.lists(names, min_size=1, max_size=20),
        slots=st.integers(1, 2),
    )
    def test_uniforms_match_the_integer_oracle(self, seed, leaves, slots):
        draws = key_uniforms(stream_keys(seed, ("k",), leaves), slots)
        for i, leaf in enumerate(leaves):
            key = oracle.stream_key(seed, "k", leaf)
            for slot in range(slots):
                assert draws[slot, i] == oracle.key_uniform(key, slot)
                assert 0.0 <= draws[slot, i] < 1.0

    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        prefixes=st.lists(names, min_size=1, max_size=4),
        leaves=st.lists(names, min_size=1, max_size=8),
    )
    def test_a_broadcast_fold_of_kept_component_keys(self, seed, prefixes, leaves):
        """Folding a column of keys against a row of names, given as names
        or as their kept component keys, extends every pair's path."""
        column = stream_keys(seed, (), prefixes)[:, None]
        by_name = fold_keys(column, leaves)
        by_key = fold_keys(column, component_keys(leaves))
        assert by_name.shape == (len(prefixes), len(leaves))
        assert np.array_equal(by_name, by_key)
        for i, prefix in enumerate(prefixes):
            for j, leaf in enumerate(leaves):
                assert int(by_key[i, j]) == oracle.stream_key(seed, prefix, leaf)


class TestRngStream:
    def test_same_child_same_draws(self):
        root = RngStream(9)
        assert root.child("x").uniform() == root.child("x").uniform()

    def test_different_children_differ(self):
        root = RngStream(9)
        assert root.child("x").uniform() != root.child("y").uniform()

    def test_nested_children(self):
        a = RngStream(9).child("dev").child("rep0")
        b = RngStream(9).child("dev").child("rep0")
        assert a.normal() == b.normal()

    def test_lognormal_factor_median_one_when_sigma_zero(self):
        assert RngStream(1).lognormal_factor(0.0) == 1.0

    def test_lognormal_factor_positive(self):
        s = RngStream(3)
        for i in range(50):
            assert s.child(str(i)).lognormal_factor(0.5) > 0.0

    def test_integers_in_range(self):
        s = RngStream(5)
        for i in range(100):
            v = s.integers(2, 7)
            assert 2 <= v < 7

    def test_shuffle_is_permutation(self):
        s = RngStream(11)
        items = list(range(20))
        shuffled = list(items)
        s.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_reorder_insensitivity_of_named_children(self):
        """Consuming children in different orders yields identical streams."""
        root1 = RngStream(42)
        a1 = root1.child("a").uniform()
        b1 = root1.child("b").uniform()
        root2 = RngStream(42)
        b2 = root2.child("b").uniform()
        a2 = root2.child("a").uniform()
        assert (a1, b1) == (a2, b2)


class TestLazyGenerator:
    def test_draws_match_a_directly_seeded_generator(self):
        stream = RngStream(5).child("a").child("b")
        direct = np.random.default_rng(derive_seed(5, "a", "b"))
        assert [stream.normal() for _ in range(4)] == [
            float(direct.normal()) for _ in range(4)
        ]

    @pytest.fixture
    def eager_thread_switches(self):
        """Switch threads every microsecond so a first-draw race shows."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.usefixtures("eager_thread_switches")
    def test_racing_first_draws_share_one_generator(self):
        """Eight threads drawing first from one fresh stream share a generator."""
        n = 8
        for seed in range(50):
            stream = RngStream(seed).child("race")
            barrier = threading.Barrier(n, timeout=10)
            values: list[float] = []

            def draw() -> None:
                barrier.wait()
                values.append(stream.uniform())

            threads = [threading.Thread(target=draw) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            serial = RngStream(seed).child("race")
            assert sorted(values) == sorted(serial.uniform() for _ in range(n))


def _round_trips(stream):
    return [pickle.loads(pickle.dumps(stream)), copy.deepcopy(stream)]


class TestPickleAndDeepcopy:
    def test_never_drawn_stream_copies_continue_identically(self):
        original = RngStream(17).child("dev").child("rep0")
        copies = _round_trips(original)
        expected = [original.normal() for _ in range(5)]
        for clone in copies:
            assert (clone.seed, clone.path) == (original.seed, original.path)
            assert [clone.normal() for _ in range(5)] == expected

    def test_mid_sequence_stream_copies_continue_identically(self):
        original = RngStream(17).child("dev")
        for _ in range(3):
            original.uniform()
        copies = _round_trips(original)
        expected = [original.uniform() for _ in range(5)]
        for clone in copies:
            assert [clone.uniform() for _ in range(5)] == expected


class TestGeneratorBuildCount:
    """Only a stream that draws builds a generator (no eager seeding), and
    platform events draw without building any.  ``_generator`` is the one
    place a generator is built (REP101 pins that)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        count = [0]
        real = rng_module._generator

        def counting(seed):
            count[0] += 1
            return real(seed)

        monkeypatch.setattr(rng_module, "_generator", counting)
        return count

    def test_child_chain_builds_one_generator(self, builds):
        stream = RngStream(1).child("a").child("b").child("c")
        assert builds[0] == 0
        stream.uniform()
        stream.uniform()
        assert builds[0] == 1

    def test_noise_fault_and_drift_draws_build_no_generators(self, builds):
        noise = NoiseModel(
            RngStream(1).child("bench"), sigma=0.05, outlier_prob=0.1
        )
        noise.perturb(1.0, "gpu0", 4096, 3)
        noise.perturb_batch(1.0, ("gpu0",), [f"r{i}" for i in range(40)])
        plan = FaultPlan.from_spec("fail:*:p=0.3; spike:*:p=0.3,x=4", seed=2)
        plan.kernel_outcome("gpu0", "x1.0", "r0", "a0")
        plan.kernel_outcomes_batch("gpu0", ("x1.0",), [f"r{i}" for i in range(40)])
        model = DriftModel.from_spec(
            "burst:gpu0:p=0.5,x=3,len=1; jitter:*:sigma=0.1,w=1", seed=4
        )
        model.speed_multiplier("gpu0", 2.5)
        model.speed_multipliers(["gpu0", "cpu0", "cpu1"], 7.0)
        events_module.normals(RngStream(3), ("p",), ["a", "b"], [0.1, 0.2])
        assert builds[0] == 0
