"""Degraded-mode repartitioning after hard device drops.

The FPM partitioner "predicts the future" for a fixed device set; this
module is what happens when the future disagrees.  A
:class:`~repro.platform.faults.DeviceDrop` removes one compute unit at a
simulated time; the runtime aborts the in-flight panel, re-solves the
partition over the *surviving* units (a warm
:meth:`~repro.core.solver.Solver.resolve` of the baseline FPM solve — or,
model-free, the observed-speed rebalancer of :mod:`repro.core.dynamic`),
charges data migration plus a plan broadcast on a shrunk communicator
(the ULFM ``MPI_Comm_shrink`` analogue), and replays the remaining panels
under the degraded plan.  The drop handling itself is the shared
re-planning :class:`~repro.runtime.episode.Episode`; this module supplies
its truth (the app's simulated iteration time) and its drop policy.

Everything is deterministic: the drop schedule comes from a seeded
:class:`~repro.platform.faults.FaultPlan` (or explicit drops), the event
engine breaks ties by insertion order, and the partitioners are pure —
so the same seed yields bit-identical degraded partitions and recovery
makespans, across runs and across process counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.dynamic import SpeedBasedRebalancer
from repro.obs import get_tracer
from repro.platform.faults import DeviceDrop, FaultPlan
from repro.runtime.episode import (
    DropEvent,
    Episode,
    RecoveryError,
    plan_switch_cost,
)
from repro.runtime.event_sim import EventSimulator
from repro.runtime.process import iteration_times
from repro.util.validation import check_in, check_nonnegative, check_positive_int

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (app imports runtime)
    from repro.app.matmul import ComputeUnit, HybridMatMul, MatMulPlan

__all__ = [
    "RecoveryError",
    "RecoveryPolicy",
    "DropEvent",
    "RecoveryResult",
    "plan_switch_cost",
    "run_with_recovery",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """How the runtime re-solves the partition after a drop.

    ``strategy="fpm"`` re-runs the functional-performance partitioner over
    the survivors' models (balanced from the first degraded panel);
    ``"observed"`` redistributes proportionally to the speeds observed
    under the pre-drop plan (model-free, the Section II dynamic scheme).
    ``migration_cost_per_block`` charges moving one b x b block between
    surviving processes; ``replan_nbytes`` is the broadcast payload of the
    new plan on the shrunk communicator.
    """

    strategy: str = "fpm"
    migration_cost_per_block: float = 0.0009
    replan_nbytes: float = 4096.0

    def __post_init__(self) -> None:
        check_in("strategy", self.strategy, ("fpm", "observed"))
        check_nonnegative("migration_cost_per_block", self.migration_cost_per_block)
        check_nonnegative("replan_nbytes", self.replan_nbytes)


@dataclass(frozen=True)
class RecoveryResult:
    """Makespan-with-recovery vs fault-free, plus the degraded plan."""

    n: int
    strategy: str
    fault_free_time_s: float
    recovery_time_s: float
    drops: tuple[DropEvent, ...]
    ignored_drops: tuple[DeviceDrop, ...]  # struck after completion
    unit_names: tuple[str, ...]
    baseline_unit_allocations: tuple[int, ...]
    degraded_unit_allocations: tuple[int, ...]  # 0 for dropped units
    blocks_migrated: int
    migration_time_s: float
    degraded_panels: int  # panels executed under a degraded plan

    @property
    def overhead_fraction(self) -> float:
        """Relative makespan cost of the faults (0.0 = fault-free).

        A zero-panel run has no fault-free makespan to compare against,
        so the overhead is defined as 0.0 rather than a division error.
        """
        if self.fault_free_time_s == 0.0:
            return 0.0
        return self.recovery_time_s / self.fault_free_time_s - 1.0


def _observed_unit_times(units, processes, plan) -> list[float]:
    """Per-unit iteration times observed under ``plan`` (max over members)."""
    by_rank = {p.rank: p for p in processes}
    areas: dict[int, int] = {}
    for rect in plan.partition.rectangles:
        areas[rect.owner] = areas.get(rect.owner, 0) + rect.area
    ranks = [rank for unit in units for rank in unit.member_ranks]
    times = dict(
        zip(
            ranks,
            iteration_times(
                [by_rank[rank] for rank in ranks],
                [areas.get(rank, 0) for rank in ranks],
            ),
        )
    )
    return [max(times[rank] for rank in unit.member_ranks) for unit in units]


class _RecoveryEpisode(Episode):
    """Truth: the app's iteration time over the surviving processes.

    Policy: after a drop, the warm FPM re-solve (``"fpm"``) or the
    observed-speed rebalancer (``"observed"``); nothing between drops.
    """

    def __init__(self, app, n, drops, policy: RecoveryPolicy) -> None:
        super().__init__(app, n, drops, policy)
        self.processes = app.processes()
        # the baseline plan's run is memoised on the app with the plan
        self.execution = app.fpm_baseline_execution(n)
        self.fault_free_s = self.execution.total_time

    def adopt(self) -> None:
        """Price a post-drop plan on the surviving processes."""
        from repro.app.execution import simulate_execution

        ranks = {r for u in self.alive_units() for r in u.member_ranks}
        self.execution = simulate_execution(
            [p for p in self.processes if p.rank in ranks],
            self.state.plan.partition,
            self.state.comm,
            self.app.node.block_size,
        )

    def panel_s(self, sim: EventSimulator) -> float:
        return self.execution.iteration_time

    def replan(self, survivors: list["ComputeUnit"]) -> "MatMulPlan":
        if self.pricing.strategy == "fpm":
            return super().replan(survivors)
        plan = self.state.plan
        allocs = SpeedBasedRebalancer().next_distribution(
            [plan.allocation_of(u.name) for u in survivors],
            _observed_unit_times(survivors, self.processes, plan),
            self.n * self.n,
        )
        return self.app.plan_for_units(self.n, survivors, allocs)


def run_with_recovery(
    app: "HybridMatMul",
    n: int,
    drops: FaultPlan | Sequence[DeviceDrop],
    policy: RecoveryPolicy = RecoveryPolicy(),
) -> RecoveryResult:
    """Simulate the application run under hard device drops.

    ``drops`` is a :class:`FaultPlan` (its ``drop`` clauses are used) or an
    explicit drop sequence.  The run executes the baseline FPM plan panel
    by panel on the event engine; each drop cancels the in-flight panel
    (it is replayed), re-solves the partition over the survivors per
    ``policy``, charges migration + plan broadcast, and resumes.  Drops
    landing after the last panel finished are recorded as ignored.

    The app's models must already cover every survivor (``build_models``
    or ``set_models`` first).
    """
    check_positive_int("n", n)
    episode = _RecoveryEpisode(app, n, drops, policy)
    state = episode.state
    tracer = get_tracer()
    with tracer.span(
        "runtime.recovery",
        category="runtime",
        n=n,
        drops=len(episode.drops),
        strategy=policy.strategy,
    ) as span:
        episode.run()
        if tracer.enabled:
            tracer.counter("recovery.drops").add(len(state.applied))
            if state.blocks_migrated:
                tracer.counter("recovery.blocks_migrated").add(
                    state.blocks_migrated
                )
            span.set_attr("panels_completed", state.completed)
            span.mark_sim(0.0, state.finish_s)

    return RecoveryResult(
        n=n,
        strategy=policy.strategy,
        fault_free_time_s=episode.fault_free_s,
        recovery_time_s=state.finish_s,
        drops=tuple(state.applied),
        ignored_drops=tuple(state.ignored),
        unit_names=episode.unit_names,
        baseline_unit_allocations=tuple(episode.baseline_allocations),
        degraded_unit_allocations=episode.unit_allocations(),
        blocks_migrated=state.blocks_migrated,
        migration_time_s=state.switch_s,
        degraded_panels=state.degraded_panels,
    )
