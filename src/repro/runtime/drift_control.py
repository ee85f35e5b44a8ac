"""Online drift detection and hysteresis-gated repartitioning.

The FPM partition is computed once, from speed functions assumed
stationary; :mod:`repro.platform.drift` makes the simulated platform
break that assumption.  This module closes the loop: a
:class:`DriftController` watches the per-unit panel timings the runtime
already collects, maintains CUSUM statistics of the log-residual
against the current model's predictions, and when drift is *sustained*
(CUSUM crossing, not a single noisy panel) hands back per-unit time
inflation estimates.  :func:`run_with_drift_control` then prices a
repartition — a warm :meth:`~repro.core.solver.Solver.resolve` over the
rescaled models, the migration + plan-broadcast charge of
:func:`~repro.runtime.episode.plan_switch_cost` — and commits the new
plan only when the predicted makespan gain over the *remaining* panels
beats that cost by the policy margin.

Hysteresis (why the controller cannot oscillate)
------------------------------------------------
Every decision — commit or reject — ends with a *recalibration*: the
controller's expected times are replaced by the model predictions under
the freshly estimated speed scales, its CUSUM state is zeroed, and
detection is suppressed for ``cooldown_panels``.  After a step change
the recalibrated expectations match the drifted reality, so subsequent
residuals are pure measurement noise; with the CUSUM slack ``slack``
above the noise scale the statistics have negative drift and stay at
zero — no second trigger, hence exactly one repartition per step.  On
pure noise the CUSUM never accumulates ``threshold`` in the first
place, hence zero repartitions.  Rejections recalibrate too: a gain not
worth the migration cost is *accepted as the new normal* instead of
being re-litigated every panel.

Device drops compose with drift: both this run and
:func:`~repro.runtime.recovery.run_with_recovery` are one re-planning
:class:`~repro.runtime.episode.Episode`, so they accept the same drop
schedule and handle a drop with the same transition, re-solving over
the survivors through the shared warm-state chain.  The warm rows
already carry every committed model rescale, so the drop re-solve passes
*only* ``dropped`` indices — never ``changed_models`` again — which is
what keeps a drop landing mid-repartition from double-applying the
controller's updates.  A committed repartition goes through the same
``switch`` transition as a drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.measurement.timer import compose_timing
from repro.obs import get_tracer
from repro.platform.drift import DriftModel
from repro.platform.faults import DeviceDrop, FaultPlan
from repro.platform.noise import NoiseModel
from repro.runtime.episode import DropEvent, Episode
from repro.runtime.event_sim import EventSimulator
from repro.runtime.recovery import RecoveryPolicy
from repro.util.validation import (
    check_in,
    check_nonnegative,
    check_positive,
    check_positive_int,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports runtime)
    from repro.app.matmul import HybridMatMul

__all__ = [
    "MODES",
    "DriftControlPolicy",
    "DriftController",
    "RepartitionEvent",
    "DriftRunResult",
    "run_with_drift_control",
]

#: Recognised run modes: the static-FPM baseline (never repartitions),
#: the online controller, and the clairvoyant oracle that reads the true
#: drift multipliers.
MODES = ("static", "controller", "oracle")


@dataclass(frozen=True)
class DriftControlPolicy:
    """Knobs of the online repartition controller.

    ``slack`` and ``threshold`` are the two-sided CUSUM drift allowance
    and decision threshold on the per-unit log-residual ``z =
    ln(observed / expected)`` (``slack`` must exceed the
    measurement-noise scale or pure noise will eventually trigger);
    ``cooldown_panels`` suppresses detection while freshly recalibrated
    statistics settle;
    ``commit_margin`` requires the predicted gain to beat the switch
    cost by that fraction; ``min_scale_step`` ignores estimated speed
    changes smaller than that fraction (no model churn from residual
    noise); ``recovery`` prices migration and the plan broadcast
    (shared with drop recovery); ``resolve_cost_s`` charges the warm
    incremental re-solve itself on a committed switch.
    """

    slack: float = 0.05
    threshold: float = 0.4
    cooldown_panels: int = 2
    commit_margin: float = 0.25
    min_scale_step: float = 0.01
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    resolve_cost_s: float = 0.0005

    def __post_init__(self) -> None:
        check_positive("slack", self.slack)
        check_positive("threshold", self.threshold)
        check_nonnegative("cooldown_panels", self.cooldown_panels)
        check_nonnegative("commit_margin", self.commit_margin)
        check_nonnegative("min_scale_step", self.min_scale_step)
        check_nonnegative("resolve_cost_s", self.resolve_cost_s)


class _UnitStatistics:
    """One unit's expected time and CUSUM state, updated in place.

    The onset accumulators count and sum the residuals since each
    one-sided statistic last touched zero — the CUSUM maximum-likelihood
    estimate of the post-change residual mean.
    """

    __slots__ = (
        "expected", "gp", "gn",
        "pos_count", "pos_sum", "neg_count", "neg_sum",
    )

    def __init__(self, expected: float) -> None:
        self.expected = expected
        self.gp = self.gn = 0.0
        self.pos_count = self.neg_count = 0
        self.pos_sum = self.neg_sum = 0.0


class DriftController:
    """CUSUM change detector over per-unit panel timings.

    Pure observer: it never touches the plan itself.  Feed it each
    panel's observed per-unit compute times; it returns ``None`` while
    the platform tracks the model and a ``{unit: time_inflation}``
    mapping once some unit's CUSUM crosses the threshold —
    ``time_inflation > 1`` means the unit runs slower than modelled.
    After the caller acts (commit *or* reject), it must call
    :meth:`recalibrate` with the expectations of the plan it kept; that
    reset is the hysteresis that prevents oscillation (module doc).
    """

    def __init__(
        self,
        expected_s: Mapping[str, float],
        policy: DriftControlPolicy = DriftControlPolicy(),
    ) -> None:
        if not expected_s:
            raise ValueError("need expected times for at least one unit")
        self.policy = policy
        self._units: dict[str, _UnitStatistics] = {}
        self._cooldown = 0
        self.detections = 0
        self.recalibrate(expected_s, cooldown=0)

    @property
    def units(self) -> tuple[str, ...]:
        return tuple(self._units)

    def recalibrate(
        self, expected_s: Mapping[str, float], cooldown: int | None = None
    ) -> None:
        """Adopt new expected times; zero statistics; start a cooldown."""
        for name, expected in expected_s.items():
            check_positive(f"expected_s[{name!r}]", expected)
        self._units = {
            name: _UnitStatistics(expected)
            for name, expected in expected_s.items()
        }
        self._cooldown = (
            self.policy.cooldown_panels if cooldown is None else cooldown
        )

    @staticmethod
    def _inflation(unit: _UnitStatistics) -> float:
        """Post-change time-inflation estimate of one unit.

        The mean residual since the dominant CUSUM side last touched
        zero — the change-point MLE of the shift magnitude.  For a hard
        step this is the post-step mean (not diluted by pre-step
        panels), which is what lets one commit fully absorb the step.
        Units whose statistics sit at zero report 1.0: no change.
        """
        if unit.gp >= unit.gn:
            count, total = unit.pos_count, unit.pos_sum
        else:
            count, total = unit.neg_count, unit.neg_sum
        if count == 0:
            return 1.0
        return math.exp(total / count)

    def observe(self, observed_s: Mapping[str, float]) -> dict[str, float] | None:
        """Ingest one panel's per-unit timings; detect sustained drift.

        Returns ``None`` (keep running) or per-unit time-inflation
        estimates (:meth:`_inflation`) at the moment some unit's
        one-sided CUSUM exceeded the policy threshold.
        """
        policy = self.policy
        slack, threshold = policy.slack, policy.threshold
        triggered = False
        for name, unit in self._units.items():
            obs = observed_s[name]
            # a finite positive float needs no checker call; anything
            # else gets check_positive's verdict and message
            if type(obs) is not float or not 0.0 < obs < math.inf:
                check_positive(f"observed_s[{name!r}]", obs)
            z = math.log(obs / unit.expected)
            # each side is clamped at zero, where its onset count restarts
            gp = unit.gp + z - slack
            if gp > 0.0:
                unit.pos_count += 1
                unit.pos_sum += z
            else:
                gp = 0.0
                unit.pos_count, unit.pos_sum = 0, 0.0
            gn = unit.gn - z - slack
            if gn > 0.0:
                unit.neg_count += 1
                unit.neg_sum += z
            else:
                gn = 0.0
                unit.neg_count, unit.neg_sum = 0, 0.0
            unit.gp, unit.gn = gp, gn
            if gp > threshold or gn > threshold:
                triggered = True
        if self._cooldown > 0:
            self._cooldown -= 1
            return None
        if not triggered:
            return None
        self.detections += 1
        return {name: self._inflation(unit) for name, unit in self._units.items()}


@dataclass(frozen=True)
class RepartitionEvent:
    """One controller (or oracle) repartition decision."""

    panel: int  # panels completed when the decision was made
    time_s: float  # simulated time of the decision
    committed: bool
    predicted_gain_s: float  # over the remaining panels
    cost_s: float  # migration + plan broadcast (+ re-solve)
    blocks_moved: int
    speed_scales: tuple[float, ...]  # per alive unit, vs the base models


@dataclass(frozen=True)
class DriftRunResult:
    """Outcome of a drifted run under one repartition mode."""

    n: int
    mode: str
    total_time_s: float
    repartitions: tuple[RepartitionEvent, ...]
    detections: int
    unit_names: tuple[str, ...]
    baseline_unit_allocations: tuple[int, ...]
    final_unit_allocations: tuple[int, ...]  # 0 for dropped units
    blocks_migrated: int
    switch_time_s: float
    drops: tuple[DropEvent, ...]
    ignored_drops: tuple[DeviceDrop, ...]

    @property
    def commits(self) -> int:
        """Committed repartitions (what the hysteresis tests count)."""
        return sum(1 for event in self.repartitions if event.committed)

    @property
    def rejects(self) -> int:
        return sum(1 for event in self.repartitions if not event.committed)


def _panel_observer(
    drift: DriftModel,
    noise: NoiseModel | None,
    n: int,
    unit_names: Sequence[str],
) -> Callable[[float, int, tuple[str, ...], Sequence[float]], dict[str, float]]:
    """``observe(now, panel, names, ideals)``: each unit's observed panel time.

    ``names`` are the alive units and ``ideals`` their ideal panel
    times, both bound once per plan.  A unit's observed time is its ideal
    time stretched by the drift time-multiplier at ``now``, then noised
    through the pinned :func:`~repro.measurement.timer.compose_timing`
    order.  A unit's noise in one panel depends only on its stream
    ``("panel", unit, f"p{panel}")``, so the whole ``n x units`` table is
    drawn here, once; a panel replayed after a drop reads the same entry
    again.  The drift stretches of all alive units come from one batched
    call per panel.
    """
    width = len(unit_names)
    column = {name: i for i, name in enumerate(unit_names)}
    if noise is not None:
        factors, outliers = noise.draw(
            ("panel",),
            [(name, f"p{panel}") for panel in range(n) for name in unit_names],
        )
        factors, outliers = factors.tolist(), outliers.tolist()
        apply = noise.apply

    def observe(
        now: float, panel: int, names: tuple[str, ...], ideals: Sequence[float]
    ) -> dict[str, float]:
        stretches = drift.time_multipliers(names, now).tolist()
        if noise is None:
            return {
                name: ideal * stretch
                for name, ideal, stretch in zip(names, ideals, stretches)
            }
        row = panel * width
        observed = {}
        for name, ideal, stretch in zip(names, ideals, stretches):
            k = row + column[name]
            observed[name] = compose_timing(
                ideal, stretch, 1.0, apply, factors[k], outliers[k]
            )
        return observed

    return observe


class _DriftEpisode(Episode):
    """Truth: each unit's model time x drift x noise, plus the pivot broadcast.

    Policy: ``static`` re-plans only on drops, ``controller`` runs the
    :class:`DriftController` loop after every panel and ``oracle`` reads
    the true multipliers.  A decision re-solves on the warm chain and
    commits through the episode's ``switch``.
    """

    def __init__(self, app, n, drift, policy, mode, noise, drops) -> None:
        super().__init__(app, n, drops, policy.recovery)
        self.drift = drift
        self.policy = policy
        self.mode = mode
        # the initial solve's rows price every plan's ideal panel times
        self.base = self.initial.warm.batch
        self.base_by_name = dict(zip(self.unit_names, self.base.fns))
        self.scales = {name: 1.0 for name in self.unit_names}
        self.events: list[RepartitionEvent] = []
        self.controller: DriftController | None = None
        self.observe = _panel_observer(drift, noise, n, self.unit_names)
        self.adopt()
        if mode == "controller":
            self.controller = DriftController(self.expected_times(), policy)

    # -------------------------------------------------------------- truth
    def _comm_s(self, plan) -> float:
        """Per-panel pivot broadcast of ``plan`` over the alive units."""
        recv = [
            2.0 * math.sqrt(float(plan.allocation_of(u.name)))
            for u in self.alive_units()
        ]
        return self.state.comm.pivot_bcast_time(recv, self.app.node.block_size)

    def adopt(self) -> None:
        """The alive units, their ideal panel times and the pivot broadcast.

        All depend only on the plan and the alive set, so they are
        computed here, once per plan, not on every panel.  The
        controller's expectations follow the plan too.
        """
        times = self.base.times_at(self.unit_allocations()).tolist()
        alive = self.state.alive
        self.alive_names = tuple(name for name in self.unit_names if name in alive)
        self.ideals = [t for name, t in zip(self.unit_names, times) if name in alive]
        self.comm_s = self._comm_s(self.state.plan)
        if self.controller is not None:
            self.controller.recalibrate(self.expected_times())

    def panel_s(self, sim: EventSimulator) -> float:
        self.observed = self.observe(
            sim.now, self.state.completed, self.alive_names, self.ideals
        )
        return max(self.observed.values()) + self.comm_s

    def expected_times(self) -> dict[str, float]:
        """The current plan's per-unit times under the warm models' scales."""
        result, names = self.state.warm
        times = result.warm.batch.times_at(
            [self.state.plan.allocation_of(name) for name in names]
        )
        return dict(zip(names, times.tolist()))

    # ------------------------------------------------------------- policy
    def after_panel(self, sim: EventSimulator) -> bool:
        if self.mode == "controller":
            inflation = self.controller.observe(self.observed)
            if inflation is None:
                return False
            step = self.policy.min_scale_step
            return self.evaluate(sim, {
                name: (
                    self.scales[name] / inflation[name]
                    if abs(inflation[name] - 1.0) > step
                    else self.scales[name]
                )
                for name in inflation
            })
        if self.mode == "oracle":
            names = self.alive_names
            truth = dict(
                zip(names, self.drift.speed_multipliers(names, sim.now).tolist())
            )
            if all(truth[name] == self.scales[name] for name in truth):
                return False
            return self.evaluate(sim, truth)
        return False

    def evaluate(self, sim: EventSimulator, scales_new: dict) -> bool:
        """Resolve under ``scales_new``; commit iff gain beats cost.

        Returns True when a switch was committed (the episode resumes
        after the charge).  Whether or not the plan switches, the warm
        state and assumed scales adopt the new estimates.
        """
        state, policy = self.state, self.policy
        live = self.alive_units()
        prev_result, prev_names = state.warm
        # each rescaled model is built once; the warm rows of the others
        # already carry their (unchanged) scales
        changed = {
            i: self.base_by_name[name].scaled(scales_new[name])
            for i, name in enumerate(prev_names)
            if scales_new[name] != self.scales[name]
        }
        result = prev_result
        if changed:
            result = self.solver.resolve(prev_result, changed_models=changed)
        allocs = self.allocations(result)
        new_plan = self.app.plan_for_units(self.n, live, allocs)
        batch = result.warm.batch
        current_compute = max(
            batch.times_at([state.plan.allocation_of(u.name) for u in live]).tolist()
        )
        new_compute = max(batch.times_at(allocs).tolist())
        gain = (
            (current_compute + self.comm_s)
            - (new_compute + self._comm_s(new_plan))
        ) * (self.n - state.completed)
        moved, cost = self.price(new_plan, state.comm)
        cost += policy.resolve_cost_s
        commit = gain > (1.0 + policy.commit_margin) * cost
        self.events.append(
            RepartitionEvent(
                panel=state.completed,
                time_s=sim.now,
                committed=commit,
                predicted_gain_s=gain,
                cost_s=cost,
                blocks_moved=moved,
                speed_scales=tuple(scales_new[u.name] for u in live),
            )
        )
        state.warm = (result, prev_names)
        self.scales = dict(self.scales, **scales_new)
        if commit:
            self.switch(sim, new_plan, state.comm, moved, cost)
        elif self.controller is not None:
            # a rejected gain is accepted as the new normal
            self.controller.recalibrate(self.expected_times())
        return commit


def run_with_drift_control(
    app: "HybridMatMul",
    n: int,
    drift: DriftModel,
    policy: DriftControlPolicy = DriftControlPolicy(),
    *,
    mode: str = "controller",
    noise: NoiseModel | None = None,
    drops: FaultPlan | Sequence[DeviceDrop] = (),
) -> DriftRunResult:
    """Simulate the n-panel run on a drifting platform under one mode.

    Each panel's true per-unit compute time is the unit model's
    prediction stretched by the drift time-multiplier at the panel's
    start instant, optionally noised through the pinned
    :func:`~repro.measurement.timer.compose_timing` order; the panel
    completes at the slowest unit plus the pivot broadcast.  ``static``
    never repartitions, ``controller`` runs the
    :class:`DriftController` loop, ``oracle`` reads the true multipliers
    and repartitions whenever the gain beats the cost (no hysteresis
    needed — it never chases noise).  Hard ``drops`` compose with every
    mode through the shared warm re-solve chain.
    """
    check_positive_int("n", n)
    check_in("mode", mode, MODES)
    episode = _DriftEpisode(app, n, drift, policy, mode, noise, drops)
    state, controller, events = episode.state, episode.controller, episode.events
    tracer = get_tracer()
    with tracer.span(
        "runtime.drift_control",
        category="runtime",
        n=n,
        mode=mode,
        drops=len(episode.drops),
    ) as span:
        episode.run()
        commits = sum(1 for e in events if e.committed)
        if tracer.enabled:
            tracer.counter("runtime.drift.panels").add(n)
            tracer.counter(f"runtime.drift.runs.{mode}").add(1)
            if controller is not None:
                tracer.counter("runtime.drift.detections").add(
                    controller.detections
                )
            tracer.counter("runtime.drift.commits").add(commits)
            tracer.counter("runtime.drift.rejects").add(len(events) - commits)
            gain_hist = tracer.histogram("runtime.drift.predicted_gain_s")
            cost_hist = tracer.histogram("runtime.drift.switch_cost_s")
            for event in events:
                gain_hist.observe(event.predicted_gain_s)
                if event.committed:
                    cost_hist.observe(event.cost_s)
        span.set_attr("repartitions", commits)
        span.mark_sim(0.0, state.finish_s)

    return DriftRunResult(
        n=n,
        mode=mode,
        total_time_s=state.finish_s,
        repartitions=tuple(events),
        detections=controller.detections if controller is not None else 0,
        unit_names=episode.unit_names,
        baseline_unit_allocations=tuple(episode.baseline_allocations),
        final_unit_allocations=episode.unit_allocations(),
        blocks_migrated=state.blocks_migrated,
        switch_time_s=state.switch_s,
        drops=tuple(state.applied),
        ignored_drops=tuple(state.ignored),
    )
