"""Repeat-until-reliable measurement protocol (paper Section III, point iii).

"To ensure the reliability of the measurement, experiments are repeated
multiple times until the results are statistically reliable."  The standard
criterion (used by the authors' tooling): stop once the Student-t
confidence interval of the mean is within a requested fraction of the mean,
subject to minimum and maximum repetition counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.obs import get_tracer
from repro.platform.faults import KernelFaultError, RetryPolicy
from repro.util.stats import RunningStats, first_reliable_prefix
from repro.util.validation import check_open_probability, check_positive, check_positive_int


@dataclass(frozen=True)
class ReliabilityCriterion:
    """Stopping rule for repeated measurements."""

    rel_err: float = 0.025
    confidence: float = 0.95
    min_repetitions: int = 5
    max_repetitions: int = 100

    def __post_init__(self) -> None:
        check_positive("rel_err", self.rel_err)
        check_open_probability("confidence", self.confidence)
        check_positive_int("min_repetitions", self.min_repetitions)
        check_positive_int("max_repetitions", self.max_repetitions)
        if self.max_repetitions < self.min_repetitions:
            raise ValueError(
                "max_repetitions must be >= min_repetitions "
                f"({self.max_repetitions} < {self.min_repetitions})"
            )


@dataclass(frozen=True)
class Measurement:
    """The outcome of a repeated measurement."""

    mean: float
    std: float
    repetitions: int
    rel_precision: float
    reliable: bool

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ValueError("a measurement needs at least one repetition")


class _FaultLedger:
    """Per-measurement accounting of injected faults and retries."""

    __slots__ = ("faults", "retries", "backoff_s")

    def __init__(self) -> None:
        self.faults = 0
        self.retries = 0
        self.backoff_s = 0.0

    def flush(self, tracer, span) -> None:
        """Emit the fault counters/attributes (no-op when nothing faulted)."""
        if not tracer.enabled or self.faults == 0:
            return
        tracer.counter("measure.faults").add(self.faults)
        tracer.counter("measure.retries").add(self.retries)
        span.set_attr("faults", self.faults)
        span.set_attr("retries", self.retries)
        span.set_attr("backoff_s", self.backoff_s)


def _sample_with_retry(
    sample: Callable[..., float],
    rep: int,
    retry: RetryPolicy | None,
    ledger: _FaultLedger,
) -> float:
    """One repetition's timing, retrying injected kernel failures.

    Attempt 0 calls ``sample(rep)`` (the unmodified protocol); retries call
    ``sample(rep, attempt)`` so the timer keys the re-invocation under a
    fresh stream leaf.  The final failure propagates unchanged when the
    retry budget is exhausted (or no policy is given).
    """
    attempt = 0
    while True:
        try:
            if attempt == 0:
                return sample(rep)
            return sample(rep, attempt)
        except KernelFaultError:
            ledger.faults += 1
            if retry is None or attempt >= retry.max_retries:
                raise
            attempt += 1
            ledger.retries += 1
            ledger.backoff_s += retry.backoff_s(attempt)


def measure_until_reliable(
    sample: Callable[..., float],
    criterion: ReliabilityCriterion = ReliabilityCriterion(),
    retry: RetryPolicy | None = None,
) -> Measurement:
    """Repeat ``sample(repetition_index)`` until the criterion is met.

    Returns the sample statistics; ``reliable`` is False when the
    repetition budget ran out first (the result is still usable, as on a
    noisy real platform, but flagged).

    ``retry`` bounds recovery from injected
    :class:`~repro.platform.faults.KernelFaultError` failures: each failed
    invocation is retried as ``sample(rep, attempt)`` with exponential
    backoff until the policy's budget runs out, with ``measure.faults`` /
    ``measure.retries`` counters and span attributes recording what
    happened (flushed even when the final failure propagates).
    """
    tracer = get_tracer()
    with tracer.span("measure.reliable", category="measurement") as span:
        stats = RunningStats()
        ledger = _FaultLedger()
        try:
            for rep in range(criterion.max_repetitions):
                if tracer.enabled:
                    with tracer.span(
                        "measure.repetition", category="measurement", repetition=rep
                    ):
                        value = _sample_with_retry(sample, rep, retry, ledger)
                else:
                    value = _sample_with_retry(sample, rep, retry, ledger)
                if value < 0:
                    raise ValueError(f"negative timing {value} from repetition {rep}")
                stats.add(value)
                if (
                    stats.count >= criterion.min_repetitions
                    and stats.is_reliable(criterion.rel_err, criterion.confidence)
                ):
                    break
        finally:
            ledger.flush(tracer, span)
        rel_precision = stats.relative_precision(criterion.confidence)
        reliable = stats.is_reliable(criterion.rel_err, criterion.confidence)
        if tracer.enabled:
            # samples are accepted when their measurement converged, and
            # charged as rejected when the repetition budget ran out first
            kind = "accepted" if reliable else "rejected"
            tracer.counter(f"measure.samples.{kind}").add(stats.count)
            tracer.gauge("measure.ci_rel_width").set(rel_precision)
            span.set_attr("repetitions", stats.count)
            span.set_attr("reliable", reliable)
            span.set_attr("mean_s", stats.mean)
        return Measurement(
            mean=stats.mean,
            std=stats.std,
            repetitions=stats.count,
            rel_precision=rel_precision,
            reliable=reliable,
        )


def _absorb_chunk(
    stats: RunningStats,
    values: np.ndarray,
    start: int,
    criterion: ReliabilityCriterion,
    retry: RetryPolicy | None = None,
    sample: Callable[..., float] | None = None,
    ledger: _FaultLedger | None = None,
) -> bool:
    """Feed one drawn chunk into the accumulator; True when the rule fired.

    A negative timing only raises when the scalar loop would actually have
    reached it, i.e. when no earlier prefix of the chunk already stopped.
    A NaN marks an injected kernel failure at attempt 0; when the scalar
    loop would have reached it, the repetition is replayed through the
    scalar ``sample`` under the shared retry protocol, so the recovered
    value (or the final, propagated failure) is bit-identical to the
    scalar oracle's.
    """
    special = np.flatnonzero(np.isnan(values) | (values < 0))
    pos = 0
    for index in special:
        index = int(index)
        if first_reliable_prefix(
            stats,
            values[pos:index],
            criterion.rel_err,
            criterion.confidence,
            criterion.min_repetitions,
        ):
            return True
        rep = start + index
        if values[index] < 0:
            raise ValueError(
                f"negative timing {float(values[index])} from repetition {rep}"
            )
        if sample is None:
            raise KernelFaultError(
                "<batch>", 0, (f"r{rep}", "no scalar sample fallback")
            )
        value = _sample_with_retry(sample, rep, retry, ledger or _FaultLedger())
        if value < 0:
            raise ValueError(f"negative timing {value} from repetition {rep}")
        stats.add(value)
        if stats.count >= criterion.min_repetitions and stats.is_reliable(
            criterion.rel_err, criterion.confidence
        ):
            return True
        pos = index + 1
    return first_reliable_prefix(
        stats,
        values[pos:],
        criterion.rel_err,
        criterion.confidence,
        criterion.min_repetitions,
    )


def measure_until_reliable_rounds(
    sample_round: Callable[[list[int], int, int], np.ndarray],
    count: int,
    criterion: ReliabilityCriterion = ReliabilityCriterion(),
    retry: RetryPolicy | None = None,
    sample: Callable[..., float] | None = None,
) -> list[Measurement]:
    """Run :func:`measure_until_reliable` for ``count`` measurements in lockstep.

    Repetitions are drawn in growing chunks (``min_repetitions``, then
    doubling, capped at the remaining budget), and round ``k`` draws
    chunk ``k`` of every measurement still running in ONE call:
    ``sample_round(active, start, n)`` returns a ``(len(active), n)``
    float array whose row ``j`` holds repetitions ``start .. start + n -
    1`` of measurement ``active[j]``.  Each row is absorbed with the
    Student-t stopping rule evaluated over every prefix, so measurement
    ``i`` stops at the exact repetition the scalar loop would have — each
    returned ``Measurement`` is bit-identical to the oracle's.

    Fault protocol: NaN entries mark injected attempt-0 kernel failures;
    each one the scalar loop would reach is replayed through
    ``sample(i, rep)`` / ``sample(i, rep, attempt)`` (the scalar
    fallback of measurement ``i``) under ``retry``.  A measurement that
    raises (a negative timing, an exhausted retry budget) stops the
    measurements after it; once the earlier ones finish, its error
    propagates — exactly what measuring one after another would raise.

    Observability: one ``measure.reliable`` span covers the whole set,
    with one ``measure.round`` span per drawn round.  The accepted /
    rejected sample counters, the fault / retry accounting and the
    CI-width gauge total as the per-measurement oracle's do.
    """
    tracer = get_tracer()
    with tracer.span("measure.reliable", category="measurement", sizes=count) as span:
        stats = [RunningStats() for _ in range(count)]
        ledgers = [_FaultLedger() for _ in range(count)]
        failure: tuple[int, KernelFaultError | ValueError] | None = None
        active = list(range(count))
        start, chunk = 0, criterion.min_repetitions
        try:
            while active and start < criterion.max_repetitions:
                n = min(chunk, criterion.max_repetitions - start)
                with tracer.span(
                    "measure.round",
                    category="measurement",
                    first_repetition=start,
                    repetitions=n,
                    sizes=len(active),
                ):
                    values = np.asarray(
                        sample_round(active, start, n), dtype=np.float64
                    )
                    if values.shape != (len(active), n):
                        raise ValueError(
                            f"sample_round(<{len(active)} active>, {start}, {n}) "
                            f"returned shape {values.shape}"
                        )
                    running = []
                    for i, row in zip(active, values):
                        fallback = None if sample is None else partial(sample, i)
                        try:
                            if not _absorb_chunk(
                                stats[i], row, start, criterion, retry, fallback, ledgers[i]
                            ):
                                running.append(i)
                        except (KernelFaultError, ValueError) as exc:
                            # the protocol's own failures (exhausted
                            # retries, a negative timing): the
                            # measurements after i would never have run
                            failure = (i, exc)
                            break
                    active = running
                start += n
                chunk *= 2
        finally:
            # account as measuring one after another would have: up to a
            # failing measurement, whose faults count but whose samples
            # never land
            if failure is not None:
                del stats[failure[0] :], ledgers[failure[0] + 1 :]
            total = _FaultLedger()
            for ledger in ledgers:
                total.faults += ledger.faults
                total.retries += ledger.retries
                total.backoff_s += ledger.backoff_s
            total.flush(tracer, span)
        results = []
        for acc in stats:
            rel_precision = acc.relative_precision(criterion.confidence)
            reliable = rel_precision <= criterion.rel_err
            if tracer.enabled:
                # same accounting as the scalar oracle: samples are accepted
                # when their measurement converged, rejected when the
                # budget ran out first
                kind = "accepted" if reliable else "rejected"
                tracer.counter(f"measure.samples.{kind}").add(acc.count)
                tracer.gauge("measure.ci_rel_width").set(rel_precision)
            results.append(
                Measurement(
                    mean=acc.mean,
                    std=acc.std,
                    repetitions=acc.count,
                    rel_precision=rel_precision,
                    reliable=reliable,
                )
            )
        if failure is not None:
            raise failure[1]
        if tracer.enabled:
            span.set_attr("repetitions", sum(m.repetitions for m in results))
            span.set_attr("unreliable", sum(not m.reliable for m in results))
        return results


def measure_until_reliable_batch(
    sample_batch: Callable[[int, int], np.ndarray],
    criterion: ReliabilityCriterion = ReliabilityCriterion(),
    retry: RetryPolicy | None = None,
    sample: Callable[..., float] | None = None,
) -> Measurement:
    """Array-based twin of :func:`measure_until_reliable`.

    ``sample_batch(start, count)`` returns the timings of repetitions
    ``start .. start + count - 1`` as one float array, and ``sample`` is
    the scalar fallback for injected failures: this is the one-measurement
    case of :func:`measure_until_reliable_rounds`, bit-identical to the
    scalar oracle.
    """
    return measure_until_reliable_rounds(
        lambda _active, start, count: np.asarray(
            sample_batch(start, count), dtype=np.float64
        )[None],
        1,
        criterion,
        retry,
        None if sample is None else (lambda _i, *args: sample(*args)),
    )[0]
