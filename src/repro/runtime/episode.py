"""One online re-planning episode: the panel driver, drops and plan switches.

The FPM partitioner plans once for a fixed device set; an online run
re-plans when that set or its speeds change.  Drop recovery
(:mod:`repro.runtime.recovery`) and drift control
(:mod:`repro.runtime.drift_control`) are both an :class:`Episode`: one
validated drop schedule, one typed :class:`EpisodeState`, one panel
driver on the event engine, one ``drop`` transition and one ``switch``
transition, shared by drops and drift commits.  A run supplies only its
*truth* (:meth:`Episode.adopt` prices a plan, :meth:`Episode.panel_s`
times a panel) and its *policy* (:meth:`Episode.replan` after a drop,
:meth:`Episode.after_panel` between panels).  FPM re-plans chain warm:
the baseline solve is held, and each drop re-solves it through
:meth:`~repro.core.solver.Solver.resolve` with only the dropped rows,
bit-identical to a cold solve of the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.core.integer import refine_integer_partition, round_partition
from repro.core.solver import SolveResult, Solver
from repro.platform.faults import DeviceDrop, FaultPlan
from repro.runtime.event_sim import EventHandle, EventSimulator
from repro.runtime.mpi_sim import SimulatedComm

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports runtime)
    from repro.app.matmul import ComputeUnit, HybridMatMul, MatMulPlan
    from repro.runtime.recovery import RecoveryPolicy

__all__ = [
    "RecoveryError",
    "DropEvent",
    "EpisodeState",
    "Episode",
    "plan_switch_cost",
    "validated_drops",
]


class RecoveryError(RuntimeError):
    """Recovery is impossible (no survivors, or capacity exhausted)."""


@dataclass(frozen=True)
class DropEvent:
    """One device drop as the runtime experienced it."""

    device: str
    time_s: float
    panels_completed: int  # main-loop iterations finished when it struck


def plan_switch_cost(
    old_by_rank: Sequence[int],
    new_by_rank: Sequence[int],
    comm: SimulatedComm,
    policy: "RecoveryPolicy",
) -> tuple[int, float]:
    """Migration + plan-broadcast cost of switching per-rank allocations.

    ``moved`` counts only blocks a rank *gains* (every moved block has
    exactly one receiver, so counting receipts avoids double-charging
    the sender side); the time charge is the migration of those blocks
    plus one broadcast of the new plan on ``comm``.  Every plan switch
    of an :class:`Episode` — a drop's or a drift commit's — is priced
    here.
    """
    moved = sum(
        max(0, new - old) for new, old in zip(new_by_rank, old_by_rank)
    )
    seconds = (
        moved * policy.migration_cost_per_block
        + comm.bcast_time(policy.replan_nbytes)
    )
    return moved, seconds


def validated_drops(
    drops: FaultPlan | Sequence[DeviceDrop], unit_names: Sequence[str]
) -> tuple[DeviceDrop, ...]:
    """The drop schedule ordered by (time, device), checked against the node.

    ``drops`` is a :class:`FaultPlan` (its ``drop`` clauses are used) or
    an explicit drop sequence.  Every dropped device must be a compute
    unit of the node, and each may drop at most once.
    """
    if isinstance(drops, FaultPlan):
        drops = drops.device_drops()
    drops = sorted(drops, key=lambda d: (d.time_s, d.device))
    unknown = [d.device for d in drops if d.device not in unit_names]
    if unknown:
        raise ValueError(
            f"dropped devices not on this node: {unknown} "
            f"(units: {list(unit_names)})"
        )
    if len({d.device for d in drops}) != len(drops):
        raise ValueError("each device can drop at most once")
    return tuple(drops)


@dataclass
class EpisodeState:
    """Everything an episode's transitions read and write."""

    plan: "MatMulPlan"
    alive: set[str]
    comm: SimulatedComm
    warm: tuple[SolveResult, tuple[str, ...]]  # last FPM solve, its units
    completed: int = 0
    inflight: EventHandle | None = None  # the running panel's finish
    resume: EventHandle | None = None  # the pending end of a switch charge
    finish_s: float | None = None
    applied: list[DropEvent] = field(default_factory=list)
    ignored: list[DeviceDrop] = field(default_factory=list)
    blocks_migrated: int = 0
    switch_s: float = 0.0
    degraded_panels: int = 0  # panels finished with a unit dropped


class Episode:
    """An ``n``-panel run that re-plans on drops (and, per policy, on drift).

    The baseline plan is one FPM solve over every unit's model, rounded,
    refined and realised, memoised on the app per ``n``
    (:meth:`~repro.app.matmul.HybridMatMul.fpm_baseline`), so only the
    first episode of an app and ``n`` pays for it; the solve heads the
    warm chain.  ``pricing`` (a
    :class:`~repro.runtime.recovery.RecoveryPolicy`) prices every plan
    switch.  Subclasses override the hooks and call :meth:`adopt` before
    :meth:`run`.
    """

    def __init__(
        self,
        app: "HybridMatMul",
        n: int,
        drops: FaultPlan | Sequence[DeviceDrop],
        pricing: "RecoveryPolicy",
    ) -> None:
        self.app = app
        self.n = n
        self.pricing = pricing
        self.units = app.compute_units()
        self.unit_names = tuple(u.name for u in self.units)
        self.drops = validated_drops(drops, self.unit_names)
        self.solver = Solver()
        self.initial, plan = app.fpm_baseline(n)
        self.baseline_allocations = plan.unit_allocations
        self.state = EpisodeState(
            plan=plan,
            alive=set(self.unit_names),
            comm=SimulatedComm(app.binding.num_processes, app.comm_model),
            warm=(self.initial, self.unit_names),
        )

    # ------------------------------------------------------ truth + policy
    def adopt(self) -> None:
        """Price the current plan once, on the survivors (truth hook)."""

    def panel_s(self, sim: EventSimulator) -> float:
        """Duration of the panel starting now (truth hook)."""
        raise NotImplementedError

    def after_panel(self, sim: EventSimulator) -> bool:
        """Decide between panels (policy hook); True if it switched plans."""
        return False

    def replan(self, survivors: list["ComputeUnit"]) -> "MatMulPlan":
        """The plan over ``survivors`` after a drop (policy hook).

        By default the warm FPM re-solve with *only* the dropped rows:
        the warm rows already carry every committed model rescale, so
        re-passing them would apply them twice.
        """
        state = self.state
        previous, names = state.warm
        dropped = [i for i, name in enumerate(names) if name not in state.alive]
        try:
            result = self.solver.resolve(previous, dropped=dropped)
        except ValueError as exc:
            raise RecoveryError(
                f"survivors cannot absorb the workload: {exc}"
            ) from exc
        state.warm = (result, tuple(x for x in names if x in state.alive))
        return self.app.plan_for_units(self.n, survivors, self.allocations(result))

    # ------------------------------------------------------------ helpers
    def allocations(self, result: SolveResult) -> list[int]:
        """``result``'s allocations rounded and refined on its own models."""
        # the warm batch's models are the live units' models at their
        # adopted scales; the held result lets the rounding reuse its rows
        fns = result.warm.batch.fns
        allocs = round_partition(fns, list(result.allocations), self.n * self.n)
        return refine_integer_partition(fns, allocs)

    def alive_units(self) -> list["ComputeUnit"]:
        """The units not dropped so far, in node order."""
        return [u for u in self.units if u.name in self.state.alive]

    def price(self, plan: "MatMulPlan", comm: SimulatedComm) -> tuple[int, float]:
        """Blocks moved and seconds charged to switch to ``plan`` on ``comm``."""
        return plan_switch_cost(
            self.state.plan.process_allocations,
            plan.process_allocations,
            comm,
            self.pricing,
        )

    def unit_allocations(self) -> tuple[int, ...]:
        """The current plan's allocation per node unit, 0 for dropped units."""
        plan = self.state.plan
        by_name = dict(zip((u.name for u in plan.units), plan.unit_allocations))
        return tuple(by_name.get(name, 0) for name in self.unit_names)

    # ------------------------------------------------------- panel driver
    def start_panel(self, sim: EventSimulator) -> None:
        """Schedule the next panel's finish, timed by the truth."""
        self.state.inflight = sim.schedule(self.panel_s(sim), self.finish_panel)

    def finish_panel(self, sim: EventSimulator) -> None:
        """Count the panel; end the run, or let the policy decide, then go on."""
        state = self.state
        state.inflight = None
        state.completed += 1
        if state.applied:  # a unit has dropped
            state.degraded_panels += 1
        if state.completed >= self.n:
            state.finish_s = sim.now
        elif not self.after_panel(sim):
            self.start_panel(sim)

    def resumed(self, sim: EventSimulator) -> None:
        """A switch's charge has elapsed: start the next panel."""
        self.state.resume = None
        self.start_panel(sim)

    # -------------------------------------------------------- transitions
    def switch(
        self,
        sim: EventSimulator,
        plan: "MatMulPlan",
        comm: SimulatedComm,
        moved: int,
        cost_s: float,
    ) -> None:
        """Adopt ``plan`` on ``comm`` and resume once ``cost_s`` is charged."""
        state = self.state
        state.plan = plan
        state.comm = comm
        state.blocks_migrated += moved
        state.switch_s += cost_s
        self.adopt()
        state.resume = sim.schedule(cost_s, self.resumed)

    def drop(self, drop: DeviceDrop):
        """The event handler of one scheduled device drop."""

        def on_drop(sim: EventSimulator) -> None:
            state = self.state
            if state.completed >= self.n:
                state.ignored.append(drop)
                return
            # the in-flight panel is replayed under the new plan, and a
            # pending switch is superseded by the survivors' re-plan
            for handle in (state.inflight, state.resume):
                if handle is not None:
                    handle.cancel()
            state.inflight = state.resume = None
            state.alive.discard(drop.device)
            survivors = self.alive_units()
            if not survivors:
                raise RecoveryError(
                    f"no surviving compute units after dropping {drop.device!r}"
                )
            plan = self.replan(survivors)
            shrunk = state.comm.shrink(sum(len(u.member_ranks) for u in survivors))
            moved, cost_s = self.price(plan, shrunk)
            state.applied.append(
                DropEvent(drop.device, drop.time_s, state.completed)
            )
            self.switch(sim, plan, shrunk, moved, cost_s)

        return on_drop

    def run(self) -> None:
        """Play the ``n`` panels and the drop schedule to completion."""
        sim = EventSimulator()
        self.start_panel(sim)
        for drop in self.drops:
            sim.schedule_at(drop.time_s, self.drop(drop))
        sim.run()
