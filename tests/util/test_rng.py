"""Unit tests for the hierarchical RNG streams."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import PCG64, Generator, SeedSequence

import repro.util.rng as rng_module
from repro.platform.drift import DriftModel
from repro.platform.noise import NoiseModel
from repro.util.rng import (
    RngStream,
    derive_seed,
    sibling_generators,
    sibling_seeds,
)

#: Seeds at the kernel's word boundaries: one entropy word up to 2**32 - 1,
#: two from 2**32 on.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]
uint64_seeds = st.integers(min_value=0, max_value=2**64 - 1)


def _reference_states(seeds):
    return np.array(
        [SeedSequence(seed).generate_state(4, np.uint64) for seed in seeds],
        dtype=np.uint64,
    ).reshape(len(seeds), 4)


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


class TestSiblingSeeds:
    def test_tuple_leaf_spells_trailing_components(self):
        assert sibling_seeds(1, ("a",), [("b", "c")])[0] == derive_seed(
            1, "a", "b", "c"
        )

    def test_list_leaf_rejected(self):
        with pytest.raises(TypeError, match="list"):
            sibling_seeds(1, ("a",), [["b", "c"]])


class TestSeedStates:
    """The bulk kernel reproduces ``SeedSequence(seed).generate_state``."""

    def test_edge_seeds(self):
        got = rng_module._seed_states(EDGE_SEEDS)
        assert got.dtype == np.uint64 and got.shape == (len(EDGE_SEEDS), 4)
        assert np.array_equal(got, _reference_states(EDGE_SEEDS))

    def test_empty_batch(self):
        assert rng_module._seed_states([]).shape == (0, 4)

    @pytest.mark.property
    @settings(max_examples=40, deadline=None)
    @given(st.lists(uint64_seeds, min_size=1, max_size=600))
    def test_random_batches(self, seeds):
        assert np.array_equal(
            rng_module._seed_states(seeds), _reference_states(seeds)
        )

    @pytest.mark.property
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.one_of(uint64_seeds, st.sampled_from(EDGE_SEEDS)),
            min_size=1,
            max_size=12,
        )
    )
    def test_bulk_generators_match_directly_seeded_ones(self, seeds):
        states = rng_module._seed_states(seeds)
        for seed, state in zip(seeds, states):
            bulk = rng_module._generator(rng_module._SeededState(seed, state))
            direct = Generator(PCG64(seed))
            assert bulk.bit_generator.state == direct.bit_generator.state
            assert bulk.normal(size=3).tolist() == direct.normal(size=3).tolist()
            assert bulk.uniform(size=3).tolist() == direct.uniform(size=3).tolist()
            assert (
                bulk.integers(0, 1000, 3).tolist()
                == direct.integers(0, 1000, 3).tolist()
            )

    def test_sibling_generators_match_stream_generators(self):
        leaves = [f"r{i}" for i in range(30)] + [("dev", "outlier")]
        gens = sibling_generators(9, ("bench", "x1.0"), leaves)
        for leaf, gen in zip(leaves, gens):
            path = ("bench", "x1.0", *(leaf if isinstance(leaf, tuple) else (leaf,)))
            direct = RngStream(9, path).generator
            assert gen.bit_generator.state == direct.bit_generator.state

    @pytest.mark.parametrize(
        "clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy]
    )
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_copies_and_spawns_behave_like_direct_generators(self, clone, seed):
        bulk = rng_module._generator(
            rng_module._SeededState(seed, rng_module._seed_states([seed])[0])
        )
        direct = Generator(PCG64(seed))
        for gen in (bulk, direct):
            gen.normal(size=2)
        bulk_copy, direct_copy = clone(bulk), clone(direct)
        assert bulk_copy.bit_generator.state == direct_copy.bit_generator.state
        assert bulk_copy.uniform(size=4).tolist() == direct_copy.uniform(
            size=4
        ).tolist()
        for _ in range(2):  # a second spawn continues the child counter
            assert [c.normal() for c in bulk_copy.spawn(2)] == [
                c.normal() for c in direct_copy.spawn(2)
            ]
        assert [c.integers(0, 100, 4).tolist() for c in bulk.spawn(2)] == [
            c.integers(0, 100, 4).tolist() for c in direct.spawn(2)
        ]


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
    """Only a stream that draws builds a generator (no eager seeding)."""

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

    def test_noise_perturb_builds_one(self, builds):
        noise = NoiseModel(RngStream(1).child("bench"), sigma=0.05)
        noise.perturb(1.0, "gpu0", 4096, 3)
        assert builds[0] == 1

    def test_noise_perturb_with_outliers_builds_two(self, builds):
        noise = NoiseModel(
            RngStream(1).child("bench"), sigma=0.05, outlier_prob=0.1
        )
        noise.perturb(1.0, "gpu0", 4096, 3)
        assert builds[0] == 2

    def test_drift_burst_and_jitter_build_two(self, builds):
        model = DriftModel.from_spec(
            "burst:gpu0:p=0.5,x=3,len=1; jitter:gpu0:sigma=0.1,w=1", seed=4
        )
        builds[0] = 0
        model.speed_multiplier("gpu0", 2.5)
        assert builds[0] == 2
