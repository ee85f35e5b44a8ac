"""Seeded platform events: one clause grammar, one rule lookup, one draw site.

Kernel faults (:mod:`repro.platform.faults`), speed drift
(:mod:`repro.platform.drift`) and measurement noise
(:mod:`repro.platform.noise`) are all seeded per-device events.  This
module owns the three decisions they share:

* the clause grammar ``kind:<device>:k=v,...; ...`` of ``--faults`` and
  ``--drift`` (:class:`Grammar`, driven by a table of :class:`Kind`);
* which rule applies to a device — exact name, then substring, then the
  ``*`` wildcard (:class:`RuleTable`);
* where events draw randomness (:func:`uniforms`, :func:`normals`, and
  their keyed forms :func:`keyed_uniforms`, :func:`keyed_normals` for
  callers that keep a stream's key and fold only what varies).
  Every draw comes from its own named counter-based stream ``(seed,
  *rng.path, *prefix, *leaf)`` (see :mod:`repro.util.rng`): one keyed
  draw covers a whole batch of streams and builds no numpy generator,
  and a draw depends only on its path — never on call order or on how
  many siblings were drawn with it.  A scalar query is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, ClassVar, Generic, Mapping, Sequence, TypeVar

import numpy as np

from repro.util.rng import RngStream, key_uniforms, stream_keys

__all__ = [
    "Grammar",
    "Kind",
    "RuleTable",
    "integral",
    "keyed_normals",
    "keyed_uniforms",
    "keys_of",
    "normals",
    "uniforms",
]

P = TypeVar("P")

_TWO_PI = 2.0 * np.pi


# --------------------------------------------------------------- grammar
def integral(value: float) -> int:
    """A parameter that must be a whole number (``code=13``, not ``13.7``)."""
    if not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


@dataclass(frozen=True)
class Kind:
    """One clause kind of a :class:`Grammar`.

    ``params`` maps each parameter to ``(profile field, convert)``, where
    ``convert`` turns the parsed float into the field's value (raising
    ``ValueError`` to reject it).  ``required`` names the parameter every
    clause must give, ``hint`` its value in errors (``<probability>``).
    By default a repeated clause keeps the device's earlier value of each
    omitted parameter; ``resets`` returns them to the default profile's.
    ``concrete`` kinds reject the ``*`` wildcard.
    """

    params: Mapping[str, tuple[str, Callable[[float], Any]]]
    required: str
    hint: str
    resets: bool = False
    concrete: bool = False


@dataclass(frozen=True)
class Grammar(Generic[P]):
    """The ``;``-separated clause grammar ``kind:<device>:k=v[,k=v...]``.

    ``noun`` names the spec in errors (``bad fault clause ...``),
    ``kinds`` lists the clause kinds in the order errors name them, and
    ``default`` is the profile a device starts from.  Clauses naming the
    same device merge into one profile with :func:`dataclasses.replace`,
    so the profile's own validation judges the merged values.
    """

    noun: str
    kinds: Mapping[str, Kind]
    default: P

    def parse(self, text: str) -> tuple[tuple[str, P], ...]:
        """The ``(device, profile)`` rules of ``text``, in first-mention order."""
        merged: dict[str, P] = {}
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            parts = clause.split(":", 2)
            if len(parts) != 3:
                raise ValueError(
                    f"bad {self.noun} clause {clause!r} "
                    f"(expected kind:device:params)"
                )
            name, device, params_text = (p.strip() for p in parts)
            kind = self.kinds.get(name)
            if kind is None:
                *rest, last = self.kinds
                raise ValueError(
                    f"unknown {self.noun} kind {name!r} in clause {clause!r} "
                    f"(expected {', '.join(rest)} or {last})"
                )
            if not device:
                raise ValueError(f"empty device in clause {clause!r}")
            values = self._params(name, kind, params_text, clause)
            if kind.concrete and device == "*":
                raise ValueError(
                    f"{name} clauses must name a concrete device, "
                    f"got {clause!r}"
                )
            if kind.required not in values:
                raise ValueError(
                    f"clause {clause!r} needs {kind.required}={kind.hint}"
                )
            fields = {kind.params[key][0]: value for key, value in values.items()}
            if kind.resets:
                fields = {f: getattr(self.default, f) for f, _ in kind.params.values()} | fields
            merged[device] = replace(merged.get(device, self.default), **fields)
        return tuple(merged.items())

    def _params(
        self, name: str, kind: Kind, text: str, clause: str
    ) -> dict[str, Any]:
        raw: dict[str, tuple[str, float]] = {}
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(
                    f"bad {self.noun} parameter {item!r} in clause {clause!r} "
                    f"(expected key=value)"
                )
            try:
                raw[key.strip()] = (value, float(value))
            except ValueError:
                raise self._bad_value(value, clause) from None
        unknown = set(raw) - set(kind.params)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for {name!r} "
                f"in clause {clause!r} (allowed: {sorted(kind.params)})"
            )
        values = {}
        for key, (value, number) in raw.items():
            try:
                values[key] = kind.params[key][1](number)
            except ValueError:
                raise self._bad_value(value, clause) from None
        return values

    def _bad_value(self, value: str, clause: str) -> ValueError:
        return ValueError(
            f"bad {self.noun} parameter value {value!r} in clause {clause!r}"
        )


# ---------------------------------------------------------------- lookup
@dataclass(frozen=True)
class RuleTable(Generic[P]):
    """An ordered rule table ``(device_pattern, profile)``.

    Lookup precedence: exact name, then substring (kernel names embed
    their device, e.g. ``gpu-gemm-v3[node.Tesla C870]``, so a rule for
    ``Tesla C870`` reaches that GPU's kernels), then the ``*`` wildcard —
    first match wins within each tier, so ``fail:*:p=1; fail:gpu0:p=0``
    exempts ``gpu0``.  Subclasses set ``unmatched``, the profile of a
    device no rule names.
    """

    rules: tuple[tuple[str, P], ...] = ()
    unmatched: ClassVar[Any] = None

    def for_device(self, device: str) -> P:
        """The profile of one device (``unmatched`` when no rule matches)."""
        device = str(device)
        wildcard = substring = None
        for pattern, profile in self.rules:
            if pattern == device:
                return profile
            if pattern == "*":
                if wildcard is None:
                    wildcard = profile
            elif pattern in device and substring is None:
                substring = profile
        if substring is not None:
            return substring
        return wildcard if wildcard is not None else self.unmatched

    @property
    def inert(self) -> bool:
        """True when no rule can ever move a device off its default."""
        return all(profile.inert for _, profile in self.rules)


# ----------------------------------------------------------------- draws
def keys_of(
    rng: RngStream, prefix: Sequence[object], leaves: Sequence[object]
) -> np.ndarray:
    """The uint64 keys of the streams ``(*rng.path, *prefix, *leaf)``.

    A tuple leaf spells several trailing names
    (:func:`~repro.util.rng.stream_keys`).  A caller that queries the
    same streams again and again may keep these keys, extend them by
    the varying components with :func:`~repro.util.rng.fold_keys`, and
    draw with :func:`keyed_uniforms` / :func:`keyed_normals`: the draws
    equal :func:`uniforms` / :func:`normals` on the full paths.
    """
    return stream_keys(rng.seed, (*rng.path, *prefix), leaves)


def keyed_uniforms(keys: np.ndarray) -> np.ndarray:
    """One uniform ``[0, 1)`` draw per keyed stream: its slot 0."""
    return key_uniforms(keys, 1)[0]


def keyed_normals(keys: np.ndarray, sigma: float | Sequence[float]) -> np.ndarray:
    """One ``N(0, sigma)`` draw per keyed stream (see :func:`normals`)."""
    scale = np.asarray(sigma, dtype=np.float64)
    if scale.ndim > 1 or (scale.ndim == 1 and scale.shape != (len(keys),)):
        raise ValueError(
            f"sigma must be a scalar or hold one value per leaf "
            f"({len(keys)}), got shape {scale.shape}"
        )
    if not np.all((scale >= 0.0) & (scale < np.inf)):  # NaN fails both
        raise ValueError(f"sigma must be finite and >= 0, got {sigma!r}")
    u = key_uniforms(keys, 2)
    return scale * (np.sqrt(-2.0 * np.log(1.0 - u[0])) * np.cos(_TWO_PI * u[1]))


def uniforms(
    rng: RngStream, prefix: Sequence[object], leaves: Sequence[object]
) -> np.ndarray:
    """One uniform ``[0, 1)`` draw per stream ``(*rng.path, *prefix, *leaf)``.

    Entry ``i`` is slot 0 of the counter-based stream keyed by that path
    (:func:`keys_of`); a tuple leaf spells several trailing names.
    Moving names between ``prefix`` and the leaves never changes a draw.
    """
    return keyed_uniforms(keys_of(rng, prefix, leaves))


def normals(
    rng: RngStream,
    prefix: Sequence[object],
    leaves: Sequence[object],
    sigma: float | Sequence[float],
) -> np.ndarray:
    """One ``N(0, sigma)`` draw per stream (see :func:`uniforms`).

    ``sigma`` is one finite scale ``>= 0`` for every stream, or a 1-D
    sequence of them with one per leaf.  The draw is Box-Muller on the
    stream's slots 0 and 1, ``sigma * sqrt(-2 ln(1 - u0)) * cos(2 pi u1)``:
    a fixed number of uniforms per stream, so no stream's draw depends on
    another's.
    """
    return keyed_normals(keys_of(rng, prefix, leaves), sigma)
