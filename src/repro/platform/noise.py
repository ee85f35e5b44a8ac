"""Measurement noise for the simulated platform.

Real benchmark timings fluctuate run to run; the paper's measurement
methodology (Section III) explicitly repeats experiments "until the results
are statistically reliable".  To keep that machinery honest, every simulated
timing is multiplied by log-normal noise with median 1.  Noise draws are
keyed by (device, context, repetition) through named RNG streams, so a whole
experiment is reproducible from one seed while distinct repetitions differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.platform.events import normals, uniforms
from repro.util.rng import RngStream
from repro.util.validation import check_nonnegative


@dataclass
class NoiseModel:
    """Multiplicative log-normal timing noise, with optional outliers.

    ``sigma`` is the standard deviation of log-time; 0.02 corresponds to
    roughly +/-2% run-to-run variation, typical of a dedicated node.
    ``sigma = 0`` makes the platform fully deterministic (useful in tests).

    ``outlier_prob`` / ``outlier_factor`` inject occasional timing spikes
    (an OS daemon waking up, a page-cache flush): with the given
    probability a measurement is stretched by the factor.  This is the
    failure-injection knob the reliability-protocol tests use — a
    measurement pipeline that trusts single timings breaks under it.
    """

    rng: RngStream
    sigma: float = 0.02
    outlier_prob: float = 0.0
    outlier_factor: float = 10.0

    def __post_init__(self) -> None:
        check_nonnegative("sigma", self.sigma)
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError(
                f"outlier_prob must be in [0, 1], got {self.outlier_prob}"
            )
        if self.outlier_factor < 1.0:
            raise ValueError(
                f"outlier_factor must be >= 1, got {self.outlier_factor}"
            )

    def _passes_through(self, seconds: float) -> bool:
        """Validate an ideal timing; True when noise leaves it unchanged."""
        if not math.isfinite(seconds):
            raise ValueError(f"seconds must be finite, got {seconds}")
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        return seconds == 0.0 or (self.sigma == 0.0 and self.outlier_prob == 0.0)

    def perturb(self, seconds: float, *context: object) -> float:
        """Return a noisy version of an ideal timing.

        ``context`` names the measurement (device, size, repetition index,
        ...); the same context always yields the same draw.
        """
        if self._passes_through(seconds):
            return seconds
        return float(self.perturb_batch(seconds, context, [()])[0])

    def draw(
        self, context: Sequence[object], leaves: Sequence[object]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The noise of many measurements: log-normal factors, outlier flags.

        Entry ``i`` is what :meth:`perturb` draws for the context
        ``(*context, leaf_i)`` (a tuple leaf spells several trailing
        components), so ``apply(seconds, factors[i], outliers[i])`` equals
        that ``perturb`` call.  Streams that ``perturb`` would not draw
        from are not drawn: a zero ``sigma`` gives factors of 1.0 and a
        zero ``outlier_prob`` gives no outliers.
        """
        n = len(leaves)
        factors = np.ones(n)
        outliers = np.zeros(n, dtype=bool)
        if self.sigma > 0.0:
            factors = np.exp(normals(self.rng, context, leaves, self.sigma))
        if self.outlier_prob > 0.0:
            outlier_leaves = [
                (*leaf, "outlier") if isinstance(leaf, tuple) else (leaf, "outlier")
                for leaf in leaves
            ]
            draws = uniforms(self.rng, context, outlier_leaves)
            outliers = draws < self.outlier_prob
        return factors, outliers

    def apply(self, seconds: float, factor: float, outlier: bool) -> float:
        """One ideal timing under noise already drawn by :meth:`draw`."""
        if self._passes_through(seconds):
            return seconds
        value = seconds * factor
        if outlier:
            value *= self.outlier_factor
        return value

    def perturb_batch(
        self,
        seconds: float | np.ndarray,
        context: Sequence[object],
        rep_keys: Sequence[object],
    ) -> np.ndarray:
        """Noisy versions of ideal timings for many measurements at once.

        ``seconds`` is one ideal timing for every key, or one per key.
        Entry ``i`` is ``self.perturb(seconds[i], *context, *rep_keys[i])``
        (a tuple key spells several trailing components): the context is
        hashed once and every key draws from its own named child stream
        in the same keyed call (see :meth:`draw`).
        """
        values = np.broadcast_to(
            np.asarray(seconds, dtype=np.float64), (len(rep_keys),)
        )
        if not np.isfinite(values).all():
            raise ValueError(f"seconds must be finite, got {seconds}")
        if (values < 0).any():
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        if not values.any() or (self.sigma == 0.0 and self.outlier_prob == 0.0):
            return values.copy()
        factors, outliers = self.draw(context, rep_keys)
        values = values * factors
        if self.outlier_prob > 0.0:
            values = np.where(outliers, values * self.outlier_factor, values)
        return values

    def quiet(self) -> "NoiseModel":
        """A zero-noise copy (deterministic timings)."""
        return NoiseModel(rng=self.rng, sigma=0.0)
