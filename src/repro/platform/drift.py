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
order.  A model keeps each device's profile and, per stochastic kind, a
table of the factors of a block of consecutive windows, drawn in one
keyed call for every device whose table the query left; a query inside
the tables draws nothing.  A single query
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
from functools import lru_cache
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
from repro.util.rng import RngStream, component_keys, fold_keys
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


#: Windows one table refill covers, per device and stochastic kind.
_BLOCK_WINDOWS = 128
#: The draws one refill of a kind may make: a refill of ``D`` tables covers
#: ``max(1, min(_BLOCK_WINDOWS, _REFILL_DRAWS // D))`` windows each, so a
#: query over more devices than this draws one window per device, as many
#: draws as it reads.
_REFILL_DRAWS = 1024


class _WindowTable:
    """One device's factors of one stochastic kind over a block of windows.

    ``block`` is ``(start, factors)``: ``factors[i]`` multiplies the
    device's speed in window ``start + i`` of ``window_s`` seconds — the
    burst factor ``1 / burst_factor`` or 1.0, or the log-normal jitter
    factor.  ``key`` is the stream key of ``(*rng.path, device, kind)``.
    A refill replaces the pair in one assignment, so a reader never pairs
    one block's start with another block's factors.
    """

    __slots__ = ("kind", "drift", "key", "window_s", "block")

    def __init__(self, kind: str, drift: DeviceDrift, key: int) -> None:
        self.kind = kind
        self.drift = drift
        self.key = key
        self.window_s = (
            drift.burst_len_s if kind == "burst" else drift.jitter_window_s
        )
        self.block: tuple[int, list[float]] = (0, [])


@lru_cache(maxsize=256)
def _window_keys(start: int, size: int) -> np.ndarray:
    """The component keys of the labels ``w<start>`` .. ``w<start + size - 1>``.

    Shared by every model and device whose block starts there (read-only).
    """
    keys = component_keys([f"w{k}" for k in range(start, start + size)])
    keys.flags.writeable = False
    return keys


def _refill(tables: Sequence[_WindowTable], t_s: float) -> None:
    """Fill each table with its block of windows that holds ``t_s``.

    Per kind, the tables' stream keys are folded in one broadcast
    :func:`~repro.util.rng.fold_keys` against the ``w<k>`` labels of the
    block start they share (one fold per distinct start, one in all when
    their windows are equally long), then drawn in one keyed call —
    uniforms for bursts, normals and one ``exp`` for jitter.  Blocks
    start at multiples of their length, and every factor is the one its
    window's stream gives, so the tables never change an answer, only
    how often it is drawn.
    """
    tables = list({id(table): table for table in tables}.values())
    for kind in ("burst", "jitter"):
        group = [table for table in tables if table.kind == kind]
        if not group:
            continue
        size = max(1, min(_BLOCK_WINDOWS, _REFILL_DRAWS // len(group)))
        starts = []
        for table in group:
            window = math.floor(t_s / table.window_s)
            starts.append(window - window % size)
        base = np.array([table.key for table in group], dtype=np.uint64)[:, None]
        if len(set(starts)) == 1:
            keys = fold_keys(base, _window_keys(starts[0], size))
        else:
            keys = np.empty((len(group), size), dtype=np.uint64)
            for start in set(starts):
                rows = [i for i, s in enumerate(starts) if s == start]
                keys[rows] = fold_keys(base[rows], _window_keys(start, size))
        keys = keys.ravel()
        drifts = [table.drift for table in group]
        if kind == "burst":
            draws = keyed_uniforms(keys).reshape(len(group), size)
            probs = np.array([d.burst_prob for d in drifts])[:, None]
            hits = 1.0 / np.array([d.burst_factor for d in drifts])[:, None]
            factors = np.where(draws < probs, hits, 1.0)
        else:
            sigmas = np.repeat([d.jitter_sigma for d in drifts], size)
            factors = np.exp(keyed_normals(keys, sigmas)).reshape(len(group), size)
        for table, start, row in zip(group, starts, factors.tolist()):
            table.block = (start, row)


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

    def __post_init__(self) -> None:
        # kept in the instance dict, so they pickle and deep-copy with the
        # model: the spec's inertness and, per device, its profile and
        # window tables (:meth:`_device`)
        object.__setattr__(self, "_inert", self.spec.inert)
        object.__setattr__(self, "_devices", {})

    @property
    def inert(self) -> bool:
        """True when every device always runs at nominal speed."""
        return self._inert

    def speed_multiplier(self, device: str, t_s: float) -> float:
        """The speed multiplier of one device at one simulated time."""
        return float(self.speed_multipliers((device,), t_s)[0])

    def time_multiplier(self, device: str, t_s: float) -> float:
        """The timing stretch of one device at ``t_s`` (1 / speed)."""
        return 1.0 / self.speed_multiplier(device, t_s)

    def _device(self, name: str) -> tuple[DeviceDrift, tuple[_WindowTable, ...]]:
        """The profile of device ``name`` and its window tables.

        Resolved on first query and kept on the instance: the profile
        from the rule table and one :class:`_WindowTable` per stochastic
        kind it has, burst before jitter (the pinned multiplication
        order), each holding the key of its stream ``(*rng.path, name,
        kind)``.  ``dict.setdefault`` publishes each entry atomically.
        """
        entry = self._devices.get(name)
        if entry is None:
            drift = self.spec.for_device(name)
            kinds = [
                kind
                for kind, present in (
                    ("burst", drift.burst_prob > 0.0),
                    ("jitter", drift.jitter_sigma > 0.0),
                )
                if present
            ]
            keys = keys_of(self.rng, (name,), kinds).tolist() if kinds else []
            tables = tuple(
                _WindowTable(kind, drift, key) for kind, key in zip(kinds, keys)
            )
            entry = self._devices.setdefault(name, (drift, tables))
        return entry

    def _speeds(self, devices: Sequence[str], t_s: float) -> list[float]:
        """Entry ``i`` is the speed multiplier of ``devices[i]`` at ``t_s``.

        The throttle envelope, times the burst factor of the burst window
        containing ``t_s``, times the jitter factor of its jitter window,
        each factor read from the device's table of that kind.  A query
        outside a table's block refills every such table at once
        (:func:`_refill`) and reads again.
        """
        # a finite non-negative float needs no checker call; anything
        # else gets check_nonnegative's verdict and message
        if type(t_s) is not float or not 0.0 <= t_s < math.inf:
            check_nonnegative("t_s", t_s)
        if self._inert:
            return [1.0] * len(devices)
        memo = self._devices
        values = []
        stale = []
        for name in devices:
            drift, tables = memo.get(name) or self._device(str(name))
            value = drift.throttle_envelope(t_s)
            for table in tables:
                start, factors = table.block
                i = math.floor(t_s / table.window_s) - start
                if 0 <= i < len(factors):
                    value = value * factors[i]
                else:
                    stale.append(table)
            values.append(value)
        if stale:
            _refill(stale, t_s)
            return self._speeds(devices, t_s)
        return values

    def speed_multipliers(
        self, devices: Sequence[str], t_s: float
    ) -> np.ndarray:
        """Speed multipliers of MANY devices at one time, in one call.

        Entry ``i`` is ``speed_multiplier(devices[i], t_s)``; each draw
        comes from the stream ``(device, "burst" | "jitter",
        f"w{window}")`` (:meth:`_speeds`).
        """
        return np.array(self._speeds(devices, t_s))

    def time_multipliers(
        self, devices: Sequence[str], t_s: float
    ) -> np.ndarray:
        """Timing stretches of many devices at one time (1 / speed)."""
        return np.array([1.0 / speed for speed in self._speeds(devices, t_s)])
