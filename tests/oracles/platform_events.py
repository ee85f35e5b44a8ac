"""Reference stream-chain draws for faults, drift and noise.

The straightforward scalar forms of :meth:`FaultPlan.kernel_outcome`,
:meth:`DriftModel.speed_multiplier` and :meth:`NoiseModel.perturb`: each
walks the named stream path one ``RngStream.child`` at a time and draws
from the stream it reaches.  Production code answers every query through
the batch lanes (one bulk-seeded draw site); the identity suites require
both public lanes to equal these walks.
"""

from __future__ import annotations

import math

from repro.platform.faults import KernelOutcome
from repro.util.validation import check_nonnegative

_OK = KernelOutcome()


def kernel_outcome(plan, device: str, *context: object) -> KernelOutcome:
    """The fault decision for ONE kernel invocation of ``plan``."""
    faults = plan.spec.for_device(device)
    if faults.inert:
        return _OK
    stream = plan.rng.child(str(device))
    for part in context:
        stream = stream.child(str(part))
    if faults.fail_prob > 0.0:
        if stream.child("fail").uniform() < faults.fail_prob:
            return KernelOutcome(failed=True, error_code=faults.error_code)
    if faults.spike_prob > 0.0:
        if stream.child("spike").uniform() < faults.spike_prob:
            return KernelOutcome(spike_factor=faults.spike_factor)
    return _OK


def speed_multiplier(model, device: str, t_s: float) -> float:
    """The speed multiplier of one device at one simulated time."""
    check_nonnegative("t_s", t_s)
    drift = model.spec.for_device(device)
    if drift.inert:
        return 1.0
    value = drift.throttle_envelope(t_s)
    if drift.burst_prob > 0.0:
        window = math.floor(t_s / drift.burst_len_s)
        draw = (
            model.rng.child(str(device)).child("burst").child(f"w{window}")
        ).uniform()
        if draw < drift.burst_prob:
            value = value * (1.0 / drift.burst_factor)
    if drift.jitter_sigma > 0.0:
        window = math.floor(t_s / drift.jitter_window_s)
        stream = (
            model.rng.child(str(device)).child("jitter").child(f"w{window}")
        )
        value = value * stream.lognormal_factor(drift.jitter_sigma)
    return value


def perturb(noise, seconds: float, *context: object) -> float:
    """A noisy version of an ideal timing (``context`` must be non-empty).

    With no context this walk draws from the model's own root stream,
    whose generator advances between calls; the production lane draws
    from a fresh stream every time instead.
    """
    if noise._passes_through(seconds):
        return seconds
    stream = noise.rng
    for part in context:
        stream = stream.child(str(part))
    value = seconds * stream.lognormal_factor(noise.sigma)
    if noise.outlier_prob > 0.0:
        if stream.child("outlier").uniform() < noise.outlier_prob:
            value *= noise.outlier_factor
    return value
