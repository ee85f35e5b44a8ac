"""The simulated benchmark timer.

Real experiments time kernels with a wall clock; this reproduction times
them by querying the device models and perturbing the ideal duration with
the platform's noise model.  The synchronous GPU measurement approach of
the paper (the dedicated host core observes begin and end of each
operation) corresponds to timing the kernel's full ``run_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.kernels.interface import Kernel
from repro.platform.drift import DriftModel
from repro.platform.faults import FaultPlan, KernelFaultError
from repro.platform.noise import NoiseModel
from repro.util.validation import check_nonnegative


def compose_timing(ideal_s, drift_time_factor, spike_factor, perturb, *noise):
    """The ONE place the timing modifiers compose, in pinned order.

    ``(ideal x drift time-multiplier) -> noise perturbation -> x fault
    spike``.  Floating-point multiplication is not associative, so the
    scalar and batch measurement lanes (and every future consumer) must
    compose through this function — any private re-ordering would break
    their bit-identity, which tests/measurement/test_timing_composition.py
    enforces with all three modifiers enabled at once.

    ``perturb`` is the noise application, called as ``perturb(drifted,
    *noise)``: scalar :meth:`~repro.platform.noise.NoiseModel.perturb`
    bound to its context, the batched twin, or
    :meth:`~repro.platform.noise.NoiseModel.apply` with noise already
    drawn; ``spike_factor`` may be a scalar or a per-repetition array.
    With ``drift_time_factor == 1.0`` and ``spike_factor == 1.0`` the
    result is exactly ``perturb(ideal_s, *noise)`` — drift-free
    fault-free timings are unchanged bit for bit.
    """
    return perturb(ideal_s * drift_time_factor, *noise) * spike_factor


@dataclass
class SimulatedTimer:
    """Times kernel runs on the simulated platform.

    One timer per experiment; the ``noise`` model keys draws by kernel
    name, problem size, contention state and repetition index, so repeated
    timings differ (as on hardware) while the full experiment stays
    reproducible from one seed.

    An optional :class:`FaultPlan` injects deterministic failures and
    transient spikes: a failing invocation raises
    :class:`~repro.platform.faults.KernelFaultError`, and retry attempts
    (``attempt > 0``) consult the plan under a fresh stream leaf so a
    retried repetition can succeed.  The noise context only gains the
    attempt suffix on retries, keeping attempt-0 timings bit-identical to
    a fault-free run.

    An optional :class:`~repro.platform.drift.DriftModel` makes the
    platform non-stationary: timings taken at simulated time ``at_s``
    are stretched by the device's drift time-multiplier.  All modifiers
    compose through :func:`compose_timing` (the pinned order), and
    ``at_s`` participates in neither the noise nor the fault stream
    paths — at the default ``at_s = 0.0`` with no drift rules, timings
    are bit-identical to a drift-free timer.
    """

    noise: NoiseModel
    faults: FaultPlan | None = None
    drift: DriftModel | None = None

    def _drift_time_factor(self, device: str, at_s: float) -> float:
        if self.drift is None or self.drift.inert:
            return 1.0
        return self.drift.time_multiplier(device, at_s)

    def time_kernel(
        self,
        kernel: Kernel,
        area_blocks: float,
        repetition: int,
        busy_cpu_cores: int = 0,
        attempt: int = 0,
        at_s: float = 0.0,
    ) -> float:
        """One noisy timing of one kernel run (seconds)."""
        check_nonnegative("area_blocks", area_blocks)
        if repetition < 0:
            raise ValueError(f"repetition must be >= 0, got {repetition}")
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        ideal = kernel.run_time(area_blocks, busy_cpu_cores)
        spike = 1.0
        if self.faults is not None:
            tail = (
                f"x{area_blocks}",
                f"busy{busy_cpu_cores}",
                f"r{repetition}",
                f"a{attempt}",
            )
            outcome = self.faults.kernel_outcome(kernel.name, *tail)
            if outcome.failed:
                raise KernelFaultError(kernel.name, outcome.error_code, tail)
            spike = outcome.spike_factor
        context = [
            kernel.name, f"x{area_blocks}", f"busy{busy_cpu_cores}", f"r{repetition}"
        ]
        if attempt > 0:
            context.append(f"a{attempt}")
        return compose_timing(
            ideal,
            self._drift_time_factor(kernel.name, at_s),
            spike,
            lambda seconds: self.noise.perturb(seconds, *context),
        )

    def time_kernel_batch(
        self,
        kernel: Kernel,
        area_blocks: float,
        repetitions: Iterable[int],
        busy_cpu_cores: int = 0,
        ideal_seconds: float | None = None,
        at_s: float = 0.0,
    ) -> np.ndarray:
        """Noisy timings of many repetitions at ONE size, in one call.

        The one-size case of :meth:`time_kernel_sweep`: bit-identical to
        ``[self.time_kernel(kernel, area_blocks, r, busy_cpu_cores,
        at_s=at_s) for r in repetitions]``, with attempt-0 failures marked
        as NaN.
        """
        return self.time_kernel_sweep(
            kernel,
            [area_blocks],
            repetitions,
            busy_cpu_cores,
            None if ideal_seconds is None else [ideal_seconds],
            at_s,
        )[0]

    def time_kernel_sweep(
        self,
        kernel: Kernel,
        sizes: Sequence[float],
        repetitions: Iterable[int],
        busy_cpu_cores: int = 0,
        ideal_seconds: Sequence[float] | None = None,
        at_s: float = 0.0,
    ) -> np.ndarray:
        """Noisy timings of the same repetitions at MANY sizes, in one call.

        Returns a ``(len(sizes), len(repetitions))`` array whose entry
        ``[i, j]`` is bit-identical to ``self.time_kernel(kernel,
        sizes[i], repetitions[j], busy_cpu_cores, at_s=at_s)``: every
        timing keeps its own stream ``(kernel, x<size>, busy<c>,
        r<rep>)``, and the whole grid draws its noise (and its fault
        decisions) in one keyed call.  ``ideal_seconds`` lets a sweep
        hoist the (deterministic) ``kernel.run_time`` out of the loop.

        With a fault plan installed, an attempt-0 failure is marked as NaN
        (simulated timings are never NaN) rather than raised, so one bad
        repetition does not lose the whole round; the batch reliability
        protocol replays marked entries through the scalar retry path.
        """
        for size in sizes:
            check_nonnegative("area_blocks", size)
        reps = [int(r) for r in repetitions]
        for rep in reps:
            if rep < 0:
                raise ValueError(f"repetition must be >= 0, got {rep}")
        if ideal_seconds is None:
            ideal_seconds = [kernel.run_time(s, busy_cpu_cores) for s in sizes]
        busy = f"busy{busy_cpu_cores}"
        names = [f"r{rep}" for rep in reps]
        leaves = [(x, busy, r) for x in [f"x{s}" for s in sizes] for r in names]
        spike_factors: np.ndarray | float = 1.0
        failed = None
        if self.faults is not None and not self.faults.inert:
            failed, spike_factors, _ = self.faults.kernel_outcomes_batch(
                kernel.name, (), [(*leaf, "a0") for leaf in leaves]
            )
        values = compose_timing(
            np.repeat(np.asarray(ideal_seconds, dtype=np.float64), len(reps)),
            self._drift_time_factor(kernel.name, at_s),
            spike_factors,
            lambda seconds: self.noise.perturb_batch(
                seconds, (kernel.name,), leaves
            ),
        )
        if failed is not None:
            values[failed] = np.nan
        return values.reshape(len(sizes), len(reps))
