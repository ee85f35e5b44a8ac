"""Property tests: both noise lanes ≡ the scalar stream oracle (hypothesis).

``NoiseModel.draw`` keys all of a batch's streams in one vectorised call
(see :func:`repro.platform.events.normals`); each repetition still draws
from its own named stream.  These properties lock that contract: for
arbitrary seeds, sigmas and outlier settings, ``perturb_batch``,
``draw``/``apply`` and ``perturb`` (a batch of one) are bit-identical to
the one-stream-at-a-time integer oracle in
``tests/oracles/platform_events.py`` — including the outlier branch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.noise import NoiseModel
from repro.util.rng import RngStream
from tests.oracles import platform_events as oracle

pytestmark = pytest.mark.property

seeds = st.integers(min_value=0, max_value=2**32 - 1)
sigmas = st.floats(min_value=0.0, max_value=0.5)
outlier_probs = st.floats(min_value=0.0, max_value=1.0)
outlier_factors = st.floats(min_value=1.0, max_value=50.0)
ideals = st.floats(min_value=0.0, max_value=1e3)
rep_counts = st.integers(min_value=1, max_value=20)


@settings(max_examples=60, deadline=None)
@given(seeds, sigmas, outlier_probs, outlier_factors, ideals, rep_counts)
def test_perturb_batch_bit_identical_to_scalar_with_outliers(
    seed, sigma, outlier_prob, outlier_factor, ideal, reps
):
    noise = NoiseModel(
        RngStream(seed).child("bench"),
        sigma=sigma,
        outlier_prob=outlier_prob,
        outlier_factor=outlier_factor,
    )
    context = ("kernel gpu0", "x123.0", "busy2")
    rep_keys = [f"r{r}" for r in range(reps)]
    batch = noise.perturb_batch(ideal, context, rep_keys)
    walked = np.array(
        [oracle.perturb(noise, ideal, *context, key) for key in rep_keys]
    )
    scalar = np.array(
        [noise.perturb(ideal, *context, key) for key in rep_keys]
    )
    assert np.array_equal(batch, walked)
    assert np.array_equal(scalar, walked)


@settings(max_examples=30, deadline=None)
@given(seeds, sigmas, ideals, rep_counts)
def test_perturb_batch_bit_identical_without_outliers(seed, sigma, ideal, reps):
    noise = NoiseModel(RngStream(seed).child("bench"), sigma=sigma)
    rep_keys = [f"r{r}" for r in range(reps)]
    batch = noise.perturb_batch(ideal, ("dev", "x1.0"), rep_keys)
    walked = np.array(
        [oracle.perturb(noise, ideal, "dev", "x1.0", key) for key in rep_keys]
    )
    scalar = np.array(
        [noise.perturb(ideal, "dev", "x1.0", key) for key in rep_keys]
    )
    assert np.array_equal(batch, walked)
    assert np.array_equal(scalar, walked)


@settings(max_examples=30, deadline=None)
@given(seeds, sigmas, outlier_probs, outlier_factors, ideals, rep_counts)
def test_applied_table_draws_bit_identical_to_scalar(
    seed, sigma, outlier_prob, outlier_factor, ideal, units
):
    """Tuple leaves, as the drift-controlled runtime draws its panels."""
    noise = NoiseModel(
        RngStream(seed).child("panel-noise"),
        sigma=sigma,
        outlier_prob=outlier_prob,
        outlier_factor=outlier_factor,
    )
    leaves = [(f"unit{u}", f"p{p}") for p in range(3) for u in range(units)]
    factors, outliers = noise.draw(("panel",), leaves)
    for leaf, factor, outlier in zip(leaves, factors, outliers):
        walked = oracle.perturb(noise, ideal, "panel", *leaf)
        assert noise.apply(ideal, factor, outlier) == walked
        assert noise.perturb(ideal, "panel", *leaf) == walked
