"""Deterministic fault injection for the simulated platform.

Real heterogeneous clusters do not merely run slow — they fail: a kernel
invocation returns an error code, a timing spikes by an order of
magnitude, a device disappears mid-run.  This module makes those events
first-class, *seeded* phenomena so the fault-tolerance machinery above
(measurement retries, degraded-mode repartitioning) can be tested with
bit-reproducible fault sequences.

Every draw comes from a named BLAKE2-derived RNG stream keyed by
``(seed, device, context...)`` through :mod:`repro.platform.events`, so
the same ``(seed, device, stream)`` triple always yields the same fault
sequence regardless of code-path order; a single query
(:meth:`FaultPlan.kernel_outcome`) is a batch of one of
:meth:`FaultPlan.kernel_outcomes_batch`.  Retry attempts get their own
stream leaf (``a0``, ``a1``, ...), so a repetition that failed on the
first attempt can deterministically succeed on the second — without
that, retrying would be pointless.

Fault specs are written in the clause grammar of
:class:`repro.platform.events.Grammar` (the CLI's ``--faults``)::

    fail:GeForce GTX680:p=0.05,code=13; spike:*:p=0.01,x=8; drop:Tesla C870:t=1.5

* ``fail`` — the invocation raises :class:`KernelFaultError` with
  probability ``p`` (optional error ``code``).
* ``spike`` — the timing is stretched by factor ``x`` with probability
  ``p`` (a transient hiccup, not an error).
* ``drop`` — the device leaves the machine at simulated time ``t``
  seconds (consumed by :mod:`repro.runtime.recovery`).

Device names match compute-unit / kernel names; ``*`` is a wildcard
matching any device (exact rules win).  Drops must name a concrete device.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.platform.events import Grammar, Kind, RuleTable, integral, uniforms
from repro.util.rng import RngStream
from repro.util.validation import check_finite, check_nonnegative, check_probability


class KernelFaultError(RuntimeError):
    """An injected kernel-invocation failure (transient; retryable)."""

    def __init__(self, device: str, code: int, context: tuple = ()):
        self.device = device
        self.code = code
        self.context = tuple(str(part) for part in context)
        where = "/".join(self.context) or "<unnamed>"
        super().__init__(
            f"injected kernel failure on {device} (error code {code}) at {where}"
        )

    def __reduce__(self):
        # the default exception reduce replays only the message, which does
        # not match this __init__'s signature — a worker raising this across
        # a process pool would break the pool on unpickling
        return (KernelFaultError, (self.device, self.code, self.context))


@dataclass(frozen=True)
class DeviceFaults:
    """The fault profile of one device (all knobs default to 'healthy')."""

    fail_prob: float = 0.0
    error_code: int = 77
    spike_prob: float = 0.0
    spike_factor: float = 8.0
    drop_time_s: float | None = None

    def __post_init__(self) -> None:
        check_probability("fail_prob", self.fail_prob)
        check_probability("spike_prob", self.spike_prob)
        check_finite("spike_factor", self.spike_factor)
        if self.spike_factor < 1.0:
            raise ValueError(
                f"spike_factor must be >= 1, got {self.spike_factor}"
            )
        if self.drop_time_s is not None:
            check_nonnegative("drop_time_s", self.drop_time_s)

    @property
    def inert(self) -> bool:
        """True when no per-invocation draw is ever needed."""
        return self.fail_prob == 0.0 and self.spike_prob == 0.0


#: Shared healthy profile (the fast path returns it without hashing).
HEALTHY = DeviceFaults()


@dataclass(frozen=True)
class DeviceDrop:
    """One hard device failure at an absolute simulated time."""

    time_s: float
    device: str

    def __post_init__(self) -> None:
        check_nonnegative("time_s", self.time_s)
        if not self.device or self.device == "*":
            raise ValueError("a drop must name a concrete device")


@dataclass(frozen=True)
class KernelOutcome:
    """What the fault plan decided for one kernel invocation."""

    failed: bool = False
    error_code: int = 0
    spike_factor: float = 1.0

    @property
    def clean(self) -> bool:
        return not self.failed and self.spike_factor == 1.0


_OK = KernelOutcome()


@dataclass(frozen=True)
class FaultSpec(RuleTable[DeviceFaults]):
    """An ordered rule table ``(device_pattern, DeviceFaults)``.

    Devices match rules by :class:`~repro.platform.events.RuleTable`
    precedence: exact name, then substring, then the ``*`` wildcard.
    """

    rules: tuple[tuple[str, DeviceFaults], ...] = ()
    unmatched: ClassVar[DeviceFaults] = HEALTHY

    def drops(self) -> tuple[DeviceDrop, ...]:
        """Every configured device drop, ordered by (time, device)."""
        found = [
            DeviceDrop(time_s=faults.drop_time_s, device=pattern)
            for pattern, faults in self.rules
            if faults.drop_time_s is not None
        ]
        return tuple(sorted(found, key=lambda d: (d.time_s, d.device)))


_GRAMMAR = Grammar("fault", {
    "fail": Kind({"p": ("fail_prob", float), "code": ("error_code", integral)},
                 "p", "<probability>"),
    "spike": Kind({"p": ("spike_prob", float), "x": ("spike_factor", float)},
                  "p", "<probability>"),
    "drop": Kind({"t": ("drop_time_s", float)}, "t", "<seconds>", concrete=True),
}, default=HEALTHY)


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse the ``--faults`` clause grammar into a :class:`FaultSpec`.

    ``clause (';' clause)*`` where each clause is
    ``fail:<device>:p=P[,code=C]`` | ``spike:<device>:p=P[,x=F]`` |
    ``drop:<device>:t=T``.  Clauses naming the same device merge into one
    :class:`DeviceFaults`, a repeated clause keeping the device's earlier
    ``code`` / ``x`` when it omits them; an empty string yields an empty
    (inert) spec.
    """
    return FaultSpec(rules=_GRAMMAR.parse(text))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff for injected kernel failures.

    ``backoff_s(attempt)`` is the simulated wait charged before retry
    number ``attempt`` (1-based): ``base * factor**(attempt - 1)``.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.002
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        check_nonnegative("backoff_base_s", self.backoff_base_s)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff_s(self, attempt: int) -> float:
        """Seconds waited before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return self.backoff_base_s * self.backoff_factor ** (attempt - 1)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault decisions for one experiment.

    The plan owns an :class:`RngStream` (conventionally
    ``RngStream(seed).child("faults")``, disjoint from the noise model's
    ``"bench"`` stream) and a :class:`FaultSpec`.  Every outcome is a pure
    function of ``(seed, device, context)`` — querying twice, in any
    order, one at a time or batched, yields identical decisions.
    """

    rng: RngStream
    spec: FaultSpec

    @classmethod
    def from_spec(
        cls,
        spec: FaultSpec | str,
        seed: int,
        stream: str = "faults",
    ) -> "FaultPlan":
        """Build a plan from a spec (or spec text) and a base seed."""
        if isinstance(spec, str):
            spec = parse_fault_spec(spec)
        return cls(rng=RngStream(seed).child(stream), spec=spec)

    @property
    def inert(self) -> bool:
        """True when kernel invocations can never be perturbed."""
        return self.spec.inert

    def kernel_outcome(self, device: str, *context: object) -> KernelOutcome:
        """The fault decision for ONE kernel invocation.

        ``context`` names the invocation (size, contention, repetition,
        attempt, ...) exactly like :meth:`NoiseModel.perturb`; the same
        context always yields the same decision.
        """
        failed, factors, code = self.kernel_outcomes_batch(device, context, [()])
        if failed[0]:
            return KernelOutcome(failed=True, error_code=code)
        if factors[0] != 1.0:
            return KernelOutcome(spike_factor=float(factors[0]))
        return _OK

    def kernel_outcomes_batch(
        self,
        device: str,
        context: tuple,
        rep_keys: list,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Fault decisions for many repetitions of one invocation context.

        Returns ``(failed_mask, spike_factors, error_code)``; entry ``i``
        is the decision for the invocation named ``(*context,
        *rep_keys[i])`` (rep keys may be tuples of trailing path
        components, e.g. ``("r3", "a0")``).  A failed invocation draws no
        spike.
        """
        n = len(rep_keys)
        failed = np.zeros(n, dtype=bool)
        factors = np.ones(n, dtype=np.float64)
        faults = self.spec.for_device(device)
        if faults.inert:
            return failed, factors, faults.error_code
        keys = [key if isinstance(key, tuple) else (key,) for key in rep_keys]
        prefix = (str(device), *context)
        if faults.fail_prob > 0.0:
            draws = uniforms(self.rng, prefix, [(*key, "fail") for key in keys])
            failed = draws < faults.fail_prob
        if faults.spike_prob > 0.0:
            draws = uniforms(self.rng, prefix, [(*key, "spike") for key in keys])
            factors = np.where(
                ~failed & (draws < faults.spike_prob),
                faults.spike_factor,
                1.0,
            )
        return failed, factors, faults.error_code

    def device_drops(self) -> tuple[DeviceDrop, ...]:
        """The configured hard device failures, ordered by (time, device)."""
        return self.spec.drops()
