"""Reference panel observation for the drift-controlled runtime.

The scalar form of :func:`repro.runtime.drift_control._panel_observer`,
which draws a whole run's panel noise in one batch and each panel's drift
stretches in one call.  Here every alive unit takes its drift stretch
from :meth:`DriftModel.time_multiplier` and its noise from
:meth:`NoiseModel.perturb`, one unit at a time.  The identity suite
swaps it in and requires equal run results.
"""

from __future__ import annotations

from repro.measurement.timer import compose_timing


def panel_observer(drift, noise, n, unit_names):
    """``observe(now, panel, names, ideals)`` with one scalar draw per unit."""

    def observe(now, panel, names, ideals):
        obs = {}
        for name, ideal in zip(names, ideals):
            factor = drift.time_multiplier(name, now)
            if noise is None:
                obs[name] = ideal * factor
            else:
                obs[name] = compose_timing(
                    ideal,
                    factor,
                    1.0,
                    lambda seconds, name=name: noise.perturb(
                        seconds, "panel", name, f"p{panel}"
                    ),
                )
        return obs

    return observe
