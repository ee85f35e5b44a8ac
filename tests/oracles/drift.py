"""The per-query vectorised drift draw, kept as a test fixture.

:class:`~repro.platform.drift.DriftModel` answers from memoised tables
of window factors, each refilled by one keyed draw for a block of
windows.  This is the draw those tables replaced: every query resolves
each device's profile, builds the ``(device, "burst" | "jitter")``
stream keys, folds them by the window containing ``t_s`` and makes one
keyed draw call per kind, for exactly the windows it reads.  The
identity suites require the tables to equal it bit for bit across block
boundaries, window lengths and device lists.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.platform.events import keyed_normals, keyed_uniforms, keys_of
from repro.util.rng import fold_keys
from repro.util.validation import check_nonnegative


def speed_multipliers(model, devices: Sequence[str], t_s: float) -> np.ndarray:
    """Entry ``i`` is the speed multiplier of ``devices[i]`` at ``t_s``.

    The throttle envelope, times the burst factor of the burst window
    containing ``t_s``, times the jitter factor of its jitter window;
    each draw comes from the stream ``(device, kind, f"w{window}")``.
    """
    check_nonnegative("t_s", t_s)
    names = [str(d) for d in devices]
    if model.inert:
        return np.ones(len(names))
    profiles = [model.spec.for_device(name) for name in names]
    values = np.array([drift.throttle_envelope(t_s) for drift in profiles])
    burst = [i for i, d in enumerate(profiles) if d.burst_prob > 0.0]
    if burst:
        keys = fold_keys(
            keys_of(model.rng, (), [(names[i], "burst") for i in burst]),
            [f"w{math.floor(t_s / profiles[i].burst_len_s)}" for i in burst],
        )
        for i, draw in zip(burst, keyed_uniforms(keys).tolist()):
            if draw < profiles[i].burst_prob:
                values[i] = values[i] * (1.0 / profiles[i].burst_factor)
    jitter = [i for i, d in enumerate(profiles) if d.jitter_sigma > 0.0]
    if jitter:
        keys = fold_keys(
            keys_of(model.rng, (), [(names[i], "jitter") for i in jitter]),
            [f"w{math.floor(t_s / profiles[i].jitter_window_s)}" for i in jitter],
        )
        sigmas = [profiles[i].jitter_sigma for i in jitter]
        values[jitter] = values[jitter] * np.exp(keyed_normals(keys, sigmas))
    return values
