"""Reference stream draws for faults, drift and noise.

A scalar, pure-Python-integer spelling of the counter-based streams of
:mod:`repro.util.rng` — the BLAKE2 component keys, the SplitMix64 fold
and slot mix, and Box-Muller — plus the straightforward scalar forms of
:meth:`FaultPlan.kernel_outcome`, :meth:`DriftModel.speed_multiplier` and
:meth:`NoiseModel.perturb` built on it: each names its stream's full
path and draws from it alone.  Production code answers every query
through the vectorised draw site; the identity suites require both
public lanes to equal these.

The transcendental steps use NumPy's ``log``/``cos``/``exp`` on scalars:
NumPy gives a float64 scalar the same result as the same value inside an
array, but its vectorised kernels may differ from :mod:`math` in the
last bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.platform.faults import KernelOutcome
from repro.util.validation import check_nonnegative

_OK = KernelOutcome()
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def component_key(name: object) -> int:
    """The BLAKE2 key of one path component."""
    digest = hashlib.blake2b(str(name).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def mix(z: int) -> int:
    """The SplitMix64 finaliser."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, *names: object) -> int:
    """The key of the stream ``(seed, *names)``: ``k <- mix(k ^ key(name))``."""
    key = 0
    for name in (int(seed), *names):
        key = mix(key ^ component_key(name))
    return key


def key_uniform(key: int, slot: int = 0) -> float:
    """Uniform number ``slot`` of a keyed stream, in ``[0, 1)``."""
    return (mix((key + (slot + 1) * _GOLDEN) & _MASK64) >> 11) * 2.0**-53


def key_normal(key: int, sigma: float) -> float:
    """The ``N(0, sigma)`` draw of a keyed stream (Box-Muller on slots 0, 1)."""
    radius = np.sqrt(-2.0 * np.log(np.float64(1.0 - key_uniform(key, 0))))
    angle = np.cos(np.float64(2.0 * np.pi * key_uniform(key, 1)))
    return float(np.float64(sigma) * (radius * angle))


def _key(rng, *names: object) -> int:
    return stream_key(rng.seed, *rng.path, *names)


def kernel_outcome(plan, device: str, *context: object) -> KernelOutcome:
    """The fault decision for ONE kernel invocation of ``plan``."""
    faults = plan.spec.for_device(device)
    if faults.inert:
        return _OK
    if faults.fail_prob > 0.0:
        if key_uniform(_key(plan.rng, device, *context, "fail")) < faults.fail_prob:
            return KernelOutcome(failed=True, error_code=faults.error_code)
    if faults.spike_prob > 0.0:
        if key_uniform(_key(plan.rng, device, *context, "spike")) < faults.spike_prob:
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
        draw = key_uniform(_key(model.rng, device, "burst", f"w{window}"))
        if draw < drift.burst_prob:
            value = value * (1.0 / drift.burst_factor)
    if drift.jitter_sigma > 0.0:
        window = math.floor(t_s / drift.jitter_window_s)
        key = _key(model.rng, device, "jitter", f"w{window}")
        value = value * float(np.exp(key_normal(key, drift.jitter_sigma)))
    return value


def perturb(noise, seconds: float, *context: object) -> float:
    """A noisy version of an ideal timing."""
    if noise._passes_through(seconds):
        return seconds
    value = seconds
    if noise.sigma > 0.0:
        value = seconds * float(np.exp(key_normal(_key(noise.rng, *context), noise.sigma)))
    if noise.outlier_prob > 0.0:
        if key_uniform(_key(noise.rng, *context, "outlier")) < noise.outlier_prob:
            value *= noise.outlier_factor
    return value
