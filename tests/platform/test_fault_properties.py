"""Property tests: FaultPlan determinism and recovery invariants (hypothesis).

The fault plan is the seed of everything the fault-tolerance machinery
does — if two identically-seeded plans ever disagreed, retries, degraded
partitions and the recovery makespan would all fork.  These properties
pin the contract for arbitrary seeds, probabilities and contexts, and
hold both public lanes to the scalar stream oracle in
``tests/oracles/platform_events.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.platform.faults import FaultPlan, FaultSpec, DeviceFaults
from tests.oracles import platform_events as oracle

pytestmark = pytest.mark.property

seeds = st.integers(min_value=0, max_value=2**32 - 1)
probs = st.floats(min_value=0.0, max_value=1.0)
device_names = st.sampled_from(
    ["gpu0", "Tesla C870", "GeForce GTX680", "socket0:c5", "a b c"]
)


def _spec(device, fail_prob, spike_prob):
    return FaultSpec(
        rules=(
            (device, DeviceFaults(fail_prob=fail_prob, spike_prob=spike_prob)),
        )
    )


@given(seeds, probs, probs, device_names, st.integers(min_value=1, max_value=30))
def test_same_seed_yields_identical_sequences(seed, fail_p, spike_p, device, n):
    spec = _spec(device, fail_p, spike_p)
    a = FaultPlan.from_spec(spec, seed=seed)
    b = FaultPlan.from_spec(spec, seed=seed)
    for i in range(n):
        outcome = a.kernel_outcome(device, f"r{i}", "a0")
        assert outcome == b.kernel_outcome(device, f"r{i}", "a0")
        assert outcome == oracle.kernel_outcome(b, device, f"r{i}", "a0")


@given(seeds, probs, probs, device_names, st.integers(min_value=1, max_value=30))
def test_batch_bit_identical_to_scalar(seed, fail_p, spike_p, device, n):
    spec = _spec(device, fail_p, spike_p)
    plan = FaultPlan.from_spec(spec, seed=seed)
    context = ("x12.0", "busy0")
    keys = [(f"r{i}", "a0") for i in range(n)]
    failed, factors, _ = plan.kernel_outcomes_batch(device, context, keys)
    for i, key in enumerate(keys):
        walked = oracle.kernel_outcome(plan, device, *context, *key)
        assert plan.kernel_outcome(device, *context, *key) == walked
        assert bool(failed[i]) == walked.failed
        assert float(factors[i]) == walked.spike_factor


@given(seeds, st.floats(min_value=0.01, max_value=0.99))
def test_per_device_streams_are_disjoint(seed, fail_p):
    # one device's fault draws never depend on another's presence in the spec
    lone = FaultPlan.from_spec(_spec("gpu0", fail_p, 0.0), seed=seed)
    both = FaultPlan.from_spec(
        FaultSpec(
            rules=(
                ("gpu0", DeviceFaults(fail_prob=fail_p)),
                ("gpu1", DeviceFaults(fail_prob=fail_p)),
            )
        ),
        seed=seed,
    )
    for i in range(20):
        assert lone.kernel_outcome("gpu0", f"r{i}") == both.kernel_outcome(
            "gpu0", f"r{i}"
        )


@given(seeds, probs)
def test_extreme_probabilities_are_certain(seed, spike_p):
    always = FaultPlan.from_spec(_spec("d", 1.0, spike_p), seed=seed)
    never = FaultPlan.from_spec(_spec("d", 0.0, 0.0), seed=seed)
    for i in range(10):
        assert always.kernel_outcome("d", f"r{i}").failed
        assert never.kernel_outcome("d", f"r{i}").clean
