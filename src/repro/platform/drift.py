"""Time-varying device speed: the non-stationary platform layer.

The paper's functional performance models assume each device's speed
function is stationary, but real platforms disagree: DGEMM throughput is
data-dependent (arXiv:1912.05381) and GPU performance shifts across
machines and over time (arXiv:1904.09538).  This module makes that
non-stationarity a first-class, *seeded* phenomenon — a
:class:`DriftModel` yields a speed multiplier per ``(device, sim-time)``
so the runtime above (:mod:`repro.runtime.drift_control`) has something
real to detect and repartition against.

Every stochastic draw comes from a named BLAKE2-derived RNG stream
keyed by ``(seed, device, window)`` through :mod:`repro.platform.events`,
so the same triple always yields the same multiplier regardless of query
order.  A model keeps each device's profile and ``(device, kind)`` stream
key, so a query folds only the window.  A single query
(:meth:`DriftModel.speed_multiplier`) is a batch of one of
:meth:`DriftModel.speed_multipliers`, so every simulation lane sees the
same platform.

Drift specs are written in the clause grammar of
:class:`repro.platform.events.Grammar`, shared with ``--faults``::

    throttle:GeForce GTX680:t0=1.5,tau=0.3,floor=0.5; burst:*:p=0.05,x=2,len=0.5; jitter:*:sigma=0.01

* ``throttle`` — from simulated time ``t0`` the device's speed decays
  exponentially (time constant ``tau`` seconds) towards ``floor`` times
  its nominal speed; ``tau=0`` is a hard step.  Thermal throttling, a
  co-located tenant, a powercap.
* ``burst`` — with probability ``p`` per window of ``len`` seconds the
  device's *timing* is stretched by factor ``x`` for that window (a
  transient slowdown; speed is multiplied by ``1/x``).
* ``jitter`` — per-window log-normal speed jitter with log-std
  ``sigma`` (window ``w`` seconds, default 1.0): slow wander around the
  nominal speed.

Device names match compute-unit / kernel names; ``*`` is a wildcard
matching any device, exact names win over substring matches which win
over the wildcard (:class:`~repro.platform.events.RuleTable`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from repro.platform.events import (
    Grammar,
    Kind,
    RuleTable,
    keyed_normals,
    keyed_uniforms,
    keys_of,
)
from repro.util.rng import RngStream, fold_keys
from repro.util.validation import check_finite, check_nonnegative, check_probability

__all__ = [
    "DeviceDrift",
    "DriftSpec",
    "DriftModel",
    "parse_drift_spec",
    "STEADY",
]


@dataclass(frozen=True)
class DeviceDrift:
    """The drift profile of one device (all knobs default to 'steady').

    ``throttle_floor`` is the asymptotic speed fraction after the
    throttle at ``throttle_t0_s`` (None = no throttle); ``burst_factor``
    stretches timings (speed x ``1/factor``) in affected windows;
    ``jitter_sigma`` is per-window log-normal speed jitter.
    """

    throttle_t0_s: float | None = None
    throttle_tau_s: float = 0.0
    throttle_floor: float = 0.5
    burst_prob: float = 0.0
    burst_factor: float = 2.0
    burst_len_s: float = 1.0
    jitter_sigma: float = 0.0
    jitter_window_s: float = 1.0

    def __post_init__(self) -> None:
        if self.throttle_t0_s is not None:
            check_nonnegative("throttle_t0_s", self.throttle_t0_s)
        check_nonnegative("throttle_tau_s", self.throttle_tau_s)
        if not 0.0 < self.throttle_floor <= 1.0:
            raise ValueError(
                f"throttle floor must be in (0, 1], got {self.throttle_floor}"
            )
        check_probability("burst_prob", self.burst_prob)
        check_finite("burst_factor", self.burst_factor)
        if self.burst_factor < 1.0:
            raise ValueError(
                f"burst factor must be >= 1, got {self.burst_factor}"
            )
        check_finite("burst_len_s", self.burst_len_s)
        if self.burst_len_s <= 0.0:
            raise ValueError(
                f"burst window must be > 0 s, got {self.burst_len_s}"
            )
        check_nonnegative("jitter_sigma", self.jitter_sigma)
        check_finite("jitter_window_s", self.jitter_window_s)
        if self.jitter_window_s <= 0.0:
            raise ValueError(
                f"jitter window must be > 0 s, got {self.jitter_window_s}"
            )

    @property
    def inert(self) -> bool:
        """True when the device's speed never departs from nominal."""
        return (
            self.throttle_t0_s is None
            and self.burst_prob == 0.0
            and self.jitter_sigma == 0.0
        )

    @property
    def stochastic(self) -> bool:
        """True when a multiplier query needs an RNG draw."""
        return self.burst_prob > 0.0 or self.jitter_sigma > 0.0

    def throttle_envelope(self, t_s: float) -> float:
        """The deterministic throttle speed fraction at ``t_s``."""
        t0 = self.throttle_t0_s
        if t0 is None or t_s < t0:
            return 1.0
        floor = self.throttle_floor
        tau = self.throttle_tau_s
        if tau == 0.0:
            return floor
        return floor + (1.0 - floor) * math.exp(-(t_s - t0) / tau)


#: Shared steady profile (the fast path returns it without hashing).
STEADY = DeviceDrift()


@dataclass(frozen=True)
class DriftSpec(RuleTable[DeviceDrift]):
    """An ordered rule table ``(device_pattern, DeviceDrift)``.

    Devices match rules by :class:`~repro.platform.events.RuleTable`
    precedence: exact name, then substring (kernel names embed their
    device), then the ``*`` wildcard.
    """

    rules: tuple[tuple[str, DeviceDrift], ...] = ()
    unmatched: ClassVar[DeviceDrift] = STEADY


_GRAMMAR = Grammar("drift", {
    "throttle": Kind({"t0": ("throttle_t0_s", float), "tau": ("throttle_tau_s", float),
                      "floor": ("throttle_floor", float)}, "t0", "<seconds>", resets=True),
    "burst": Kind({"p": ("burst_prob", float), "x": ("burst_factor", float),
                   "len": ("burst_len_s", float)}, "p", "<probability>"),
    "jitter": Kind({"sigma": ("jitter_sigma", float), "w": ("jitter_window_s", float)},
                   "sigma", "<log-std>"),
}, default=STEADY)


def parse_drift_spec(text: str) -> DriftSpec:
    """Parse the drift clause grammar into a :class:`DriftSpec`.

    ``clause (';' clause)*`` where each clause is
    ``throttle:<device>:t0=T[,tau=S][,floor=F]`` |
    ``burst:<device>:p=P[,x=F][,len=L]`` |
    ``jitter:<device>:sigma=S[,w=W]``.  Clauses naming the same device
    merge into one :class:`DeviceDrift`: a repeated ``throttle`` resets
    an omitted ``tau`` / ``floor`` to its default, while a repeated
    ``burst`` or ``jitter`` keeps the device's earlier values.  An empty
    string yields an empty (inert) spec.
    """
    return DriftSpec(rules=_GRAMMAR.parse(text))


@dataclass(frozen=True)
class DriftModel:
    """Seeded, deterministic time-varying device speed for one experiment.

    The model owns an :class:`RngStream` (conventionally
    ``RngStream(seed).child("drift")``, disjoint from the noise model's
    ``"bench"`` and the fault plan's ``"faults"`` streams) and a
    :class:`DriftSpec`.  Every multiplier is a pure function of
    ``(seed, device, time window)`` — querying twice, in any order, one
    device at a time or batched, yields identical values.

    The *speed* multiplier combines, in pinned order, the deterministic
    throttle envelope, the burst factor of the burst window containing
    ``t``, and the jitter factor of the jitter window containing ``t``.
    The *time* multiplier is its reciprocal — what simulated kernel
    timings are stretched by.
    """

    rng: RngStream
    spec: DriftSpec

    @classmethod
    def from_spec(
        cls,
        spec: DriftSpec | str,
        seed: int,
        stream: str = "drift",
    ) -> "DriftModel":
        """Build a model from a spec (or spec text) and a base seed."""
        if isinstance(spec, str):
            spec = parse_drift_spec(spec)
        return cls(rng=RngStream(seed).child(stream), spec=spec)

    @property
    def inert(self) -> bool:
        """True when every device always runs at nominal speed."""
        return self.spec.inert

    def speed_multiplier(self, device: str, t_s: float) -> float:
        """The speed multiplier of one device at one simulated time."""
        return float(self.speed_multipliers((device,), t_s)[0])

    def time_multiplier(self, device: str, t_s: float) -> float:
        """The timing stretch of one device at ``t_s`` (1 / speed)."""
        return 1.0 / self.speed_multiplier(device, t_s)

    def _device(self, name: str) -> tuple[DeviceDrift, np.ndarray | None]:
        """The profile of device ``name`` and its burst and jitter stream keys.

        Resolved once per device and kept on the instance: the profile
        from the rule table and, for a stochastic profile, the keys of
        ``(*rng.path, name, "burst")`` and ``(*rng.path, name,
        "jitter")``.  ``dict.setdefault`` publishes each entry
        atomically, and the memo lives in the instance dict, so it
        pickles and deep-copies with the model.
        """
        memo = self.__dict__.setdefault("_devices", {})
        entry = memo.get(name)
        if entry is None:
            drift = self.spec.for_device(name)
            keys = (
                keys_of(self.rng, (name,), ("burst", "jitter"))
                if drift.stochastic
                else None
            )
            entry = memo.setdefault(name, (drift, keys))
        return entry

    def speed_multipliers(
        self, devices: Sequence[str], t_s: float
    ) -> np.ndarray:
        """Speed multipliers of MANY devices at one time, in one call.

        Entry ``i`` is ``speed_multiplier(devices[i], t_s)``: the
        throttle envelope, times the burst factor of the burst window
        containing ``t_s``, times the jitter factor of its jitter window.
        Each draw comes from the stream ``(device, "burst" | "jitter",
        f"w{window}")``: the device's memoised key of ``(device, kind)``
        folded by the window, one keyed draw call per kind.
        """
        check_nonnegative("t_s", t_s)
        names = [str(d) for d in devices]
        if self.inert:
            return np.ones(len(names))
        entries = [self._device(name) for name in names]
        profiles = [drift for drift, _ in entries]
        # a profile without a throttle has envelope 1.0 at every instant
        values = np.array([drift.throttle_envelope(t_s) for drift in profiles])
        burst = [i for i, d in enumerate(profiles) if d.burst_prob > 0.0]
        if burst:
            keys = fold_keys(
                np.array([entries[i][1][0] for i in burst]),
                [f"w{math.floor(t_s / profiles[i].burst_len_s)}" for i in burst],
            )
            for i, draw in zip(burst, keyed_uniforms(keys).tolist()):
                if draw < profiles[i].burst_prob:
                    values[i] = values[i] * (1.0 / profiles[i].burst_factor)
        jitter = [i for i, d in enumerate(profiles) if d.jitter_sigma > 0.0]
        if jitter:
            keys = fold_keys(
                np.array([entries[i][1][1] for i in jitter]),
                [f"w{math.floor(t_s / profiles[i].jitter_window_s)}" for i in jitter],
            )
            sigmas = [profiles[i].jitter_sigma for i in jitter]
            values[jitter] = values[jitter] * np.exp(keyed_normals(keys, sigmas))
        return values

    def time_multipliers(
        self, devices: Sequence[str], t_s: float
    ) -> np.ndarray:
        """Timing stretches of many devices at one time (1 / speed)."""
        return 1.0 / self.speed_multipliers(devices, t_s)
