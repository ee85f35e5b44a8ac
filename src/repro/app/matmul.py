"""The heterogeneous hybrid matrix-multiplication pipeline (Section IV + VI).

:class:`HybridMatMul` ties everything together on one node:

1. identify the *compute units* — each GPU (with its dedicated core) and
   each socket (with its remaining cores), exactly the paper's model set
   ``{g1, g2, 2 x s5, 2 x s6}``;
2. build their functional performance models with the measurement stack
   (or accept pre-built / loaded models);
3. partition the ``n^2`` blocks between units with the FPM, CPM or
   homogeneous algorithm and round to integers;
4. expand unit allocations to the per-process level (a socket's share is
   split evenly over its CPU processes) and arrange all rectangles with
   the column-based geometry;
5. simulate the execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.core.cpm import ConstantPerformanceModel, cpms_from_even_split
from repro.core.fpm import FunctionalPerformanceModel
from repro.core.geometry import ColumnPartition, column_based_partition
from repro.core.integer import refine_integer_partition, round_partition
from repro.core.solver import SolveResult, Solver
from repro.app.execution import (
    ExecutionResult,
    simulate_execution,
    simulate_execution_events,
)
from repro.measurement.benchmark import HybridBenchmark
from repro.measurement.binding import BindingPlan, default_binding
from repro.measurement.fpm_builder import FpmBuilder, SizeGrid
from repro.platform.faults import FaultPlan
from repro.platform.spec import NodeSpec
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from repro.runtime.process import DeviceBoundProcess, bind_processes
from repro.util.validation import check_positive, check_positive_int


class PartitioningStrategy(str, enum.Enum):
    """The three algorithms compared in the paper's Section VI."""

    FPM = "fpm"
    CPM = "cpm"
    HOMOGENEOUS = "homogeneous"


@dataclass(frozen=True)
class ComputeUnit:
    """One partitioning unit: a GPU (plus dedicated core) or a socket."""

    name: str
    kind: str  # "gpu" | "socket"
    socket_index: int
    gpu_index: int | None
    member_ranks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("gpu", "socket"):
            raise ValueError(f"unknown unit kind {self.kind!r}")
        if not self.member_ranks:
            raise ValueError(f"unit {self.name} has no member processes")


@dataclass(frozen=True)
class MatMulPlan:
    """A fully resolved run plan: allocations, geometry, and strategy.

    The allocations are checked when the plan is built; the column
    geometry is arranged on first read of :attr:`partition`, so a
    re-plan whose consumers read only allocations never builds it.
    """

    n: int
    strategy: PartitioningStrategy
    units: tuple[ComputeUnit, ...]
    unit_allocations: tuple[int, ...]
    process_allocations: tuple[int, ...]

    @cached_property
    def partition(self) -> ColumnPartition:
        """The process rectangles, arranged by the column-based geometry."""
        return column_based_partition(self.process_allocations, self.n)

    @cached_property
    def _allocation_index(self) -> dict[str, int]:
        return {
            unit.name: alloc
            for unit, alloc in zip(self.units, self.unit_allocations)
        }

    def allocation_of(self, unit_name: str) -> int:
        try:
            return self._allocation_index[unit_name]
        except KeyError:
            raise KeyError(f"no unit named {unit_name!r}") from None


class HybridMatMul:
    """The application, bound to one (simulated) hybrid node."""

    def __init__(
        self,
        node: NodeSpec,
        seed: int = 42,
        noise_sigma: float = 0.02,
        gpu_version: int = 3,
        comm_model: CommModel | None = None,
        faults: FaultPlan | None = None,
    ):
        self.node = node
        self.gpu_version = gpu_version
        self.bench = HybridBenchmark(
            node, seed=seed, noise_sigma=noise_sigma, faults=faults
        )
        self.binding: BindingPlan = default_binding(node)
        self.comm_model = comm_model or CommModel()
        self._models: dict[str, FunctionalPerformanceModel] = {}
        self._units: tuple[ComputeUnit, ...] | None = None
        self._processes: tuple[DeviceBoundProcess, ...] | None = None
        # n -> the FPM baseline: the held solve and the plan realised from it
        self._baselines: dict[int, tuple[SolveResult, MatMulPlan]] = {}
        # n -> the fault-free run of that plan; forgotten with the baseline
        self._baseline_runs: dict[int, ExecutionResult] = {}

    # ----------------------------------------------------------- topology
    def compute_units(self) -> list[ComputeUnit]:
        """GPUs first (attachment order), then sockets — the model set.

        The node and binding are fixed per instance, so the unit list is
        computed once and a fresh copy returned on every call.
        """
        if self._units is not None:
            return list(self._units)
        units: list[ComputeUnit] = []
        for gpu_index, att in enumerate(self.node.gpus):
            rank = self.binding.dedicated_ranks()[gpu_index]
            units.append(
                ComputeUnit(
                    name=att.gpu.name,
                    kind="gpu",
                    socket_index=att.socket_index,
                    gpu_index=gpu_index,
                    member_ranks=(rank,),
                )
            )
        for s in range(self.node.num_sockets):
            ranks = tuple(self.binding.cpu_ranks_on_socket(s))
            if not ranks:
                continue
            units.append(
                ComputeUnit(
                    name=f"socket{s}:c{len(ranks)}",
                    kind="socket",
                    socket_index=s,
                    gpu_index=None,
                    member_ranks=ranks,
                )
            )
        self._units = tuple(units)
        return units

    def cpu_cores_of(self, unit: ComputeUnit) -> int:
        """Active CPU-kernel cores of a socket unit."""
        if unit.kind != "socket":
            raise ValueError(f"{unit.name} is not a socket unit")
        return len(unit.member_ranks)

    # ------------------------------------------------------------- models
    def set_models(self, models: dict[str, FunctionalPerformanceModel]) -> None:
        """Install pre-built models, keyed by compute-unit name.

        Forgets every memoised FPM baseline (:meth:`fpm_baseline`) and
        its run (:meth:`fpm_baseline_execution`).
        """
        self._models.update(models)
        self._forget_baselines()

    def build_models(
        self,
        max_blocks: float,
        cpu_points: int = 12,
        gpu_points: int = 16,
        adaptive: bool = True,
    ) -> dict[str, FunctionalPerformanceModel]:
        """Benchmark every compute unit and build its FPM.

        ``max_blocks`` should cover the largest allocation any unit may
        receive (the total block count of the largest planned problem is
        always safe).  Models are cached on the instance; adding one
        forgets every memoised FPM baseline (:meth:`fpm_baseline`) and
        its run (:meth:`fpm_baseline_execution`).
        """
        check_positive("max_blocks", max_blocks)
        builder = FpmBuilder(self.bench)
        for unit in self.compute_units():
            if unit.name in self._models:
                continue
            if unit.kind == "gpu":
                kernel = self.bench.gpu_kernel(unit.gpu_index, self.gpu_version)
                grid = SizeGrid.geometric(8.0, max_blocks, gpu_points)
            else:
                gpu_here = bool(self.node.gpus_on_socket(unit.socket_index))
                kernel = self.bench.socket_kernel(
                    unit.socket_index, len(unit.member_ranks), gpu_active=gpu_here
                )
                # sockets never receive more than a modest share
                grid = SizeGrid.geometric(
                    4.0, max(8.0, max_blocks / 2.0), cpu_points
                )
            model = builder.build(kernel, grid, adaptive=adaptive, name=unit.name)
            self._models[unit.name] = model.repaired()
            self._forget_baselines()
        return dict(self._models)

    def models_for(self, units: list[ComputeUnit]) -> list[FunctionalPerformanceModel]:
        missing = [u.name for u in units if u.name not in self._models]
        if missing:
            raise ValueError(
                f"no models built for units {missing}; call build_models() "
                f"or set_models() first"
            )
        return [self._models[u.name] for u in units]

    def constant_models(
        self, calibration_total: float
    ) -> list[ConstantPerformanceModel]:
        """The paper's CPM procedure: constants from an even-split run."""
        units = self.compute_units()
        return cpms_from_even_split(self.models_for(units), calibration_total)

    # --------------------------------------------------------------- plan
    def plan(
        self,
        n: int,
        strategy: PartitioningStrategy | str = PartitioningStrategy.FPM,
        cpm_calibration_total: float | None = None,
    ) -> MatMulPlan:
        """Partition the ``n x n``-block problem under a strategy.

        ``cpm_calibration_total`` (CPM only) is the total size of the
        even-split calibration run; it defaults to a problem that fits the
        GPUs' memories — reproducing why CPM overloads GPUs at scale.
        """
        check_positive_int("n", n)
        strategy = PartitioningStrategy(strategy)
        units = self.compute_units()
        total = n * n

        if strategy is PartitioningStrategy.HOMOGENEOUS:
            # even distribution over *processes*, not units
            process_allocs = self._even_process_allocations(total)
            unit_allocs = [
                sum(process_allocs[r] for r in u.member_ranks) for u in units
            ]
            return self._realise(n, strategy, units, unit_allocs, process_allocs)
        if strategy is PartitioningStrategy.FPM:
            return self.fpm_baseline(n)[1]
        calibration = cpm_calibration_total or 40.0 * 40.0
        constants = self.constant_models(calibration)
        continuous = list(
            Solver(strategy="cpm").solve(constants, float(total)).allocations
        )
        speeds = [c.speed for c in constants]
        unit_allocs = round_partition(speeds, continuous, total)
        return self._realise(n, strategy, units, unit_allocs)

    def fpm_baseline(self, n: int) -> tuple[SolveResult, MatMulPlan]:
        """The FPM solve of the ``n x n``-block problem and its plan.

        One solve over every unit's model, rounded and refined on the
        solve's own rows, then realised.  Both are pure functions of the
        models and ``n``, so they are computed once per ``n`` and shared
        by :meth:`plan` and every :class:`~repro.runtime.episode.Episode`
        (a shared plan shares its geometry too); the held result heads
        an episode's warm re-solve chain.  Changing the models forgets
        the memo.
        """
        check_positive_int("n", n)
        baseline = self._baselines.get(n)
        if baseline is None:
            models = self.models_for(self.compute_units())
            result = Solver().solve(models, float(n * n))
            # the held result lets the rounding reuse the solve's rows
            fns = result.warm.batch.fns
            allocs = round_partition(fns, list(result.allocations), n * n)
            allocs = refine_integer_partition(fns, allocs)
            baseline = self._baselines[n] = (
                result,
                self.plan_from_unit_allocations(n, allocs),
            )
        return baseline

    def fpm_baseline_execution(self, n: int) -> ExecutionResult:
        """The fault-free simulated run of :meth:`fpm_baseline`'s plan.

        :meth:`execute` on the memoised plan, memoised beside it and
        forgotten with it: every recovery episode of an app and ``n``
        starts from this run, so only the first one prices it.
        """
        run = self._baseline_runs.get(n)
        if run is None:
            run = self._baseline_runs[n] = self.execute(self.fpm_baseline(n)[1])
        return run

    def _forget_baselines(self) -> None:
        """Drop every memoised baseline solve, plan and run (models changed)."""
        self._baselines.clear()
        self._baseline_runs.clear()

    def plan_from_unit_allocations(
        self,
        n: int,
        unit_allocations: list[int],
        strategy: PartitioningStrategy | str = PartitioningStrategy.FPM,
    ) -> MatMulPlan:
        """Materialise a plan from externally computed unit allocations.

        Used by refinement passes (e.g. communication-aware adjustment)
        that post-process the partitioner's output before geometry:
        :meth:`plan_for_units` over every unit of the node.
        """
        return self.plan_for_units(
            n, self.compute_units(), unit_allocations, strategy
        )

    def plan_for_units(
        self,
        n: int,
        units: list[ComputeUnit],
        unit_allocations: list[int],
        strategy: PartitioningStrategy | str = PartitioningStrategy.FPM,
    ) -> MatMulPlan:
        """Materialise a plan over a *subset* of this node's units.

        The degraded-mode seam used by :mod:`repro.runtime.episode`:
        after a device drop, the partitioner re-solves over the surviving
        units and this method expands the allocations to processes and
        rebuilds the geometry.  Ranks of excluded units receive zero
        blocks (their rectangles are empty), so the plan still spans the
        node's full process set.
        """
        check_positive_int("n", n)
        return self._realise(
            n, PartitioningStrategy(strategy), list(units), unit_allocations
        )

    def _realise(
        self,
        n: int,
        strategy: PartitioningStrategy,
        units: list[ComputeUnit],
        unit_allocs: list[int],
        process_allocs: list[int] | None = None,
    ) -> MatMulPlan:
        """The one place a :class:`MatMulPlan` is built.

        Checks that ``units`` are distinct units of this node with one
        whole, non-negative allocation each summing to ``n^2``, and
        expands the unit allocations to processes unless
        ``process_allocs`` is given.  The plan arranges the process
        rectangles when its :attr:`~MatMulPlan.partition` is first read.
        """
        names = [u.name for u in units]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"unit {name!r} appears more than once")
        known = {u.name for u in self.compute_units()}
        unknown = [name for name in names if name not in known]
        if unknown:
            raise ValueError(f"units not on this node: {unknown}")
        if len(unit_allocs) != len(units):
            raise ValueError(
                f"{len(unit_allocs)} allocations for {len(units)} units"
            )
        for name, alloc in zip(names, unit_allocs):
            if not (alloc >= 0 and float(alloc).is_integer()):
                raise ValueError(
                    f"allocation of {name!r} must be a non-negative whole "
                    f"number of blocks, got {alloc!r}"
                )
        unit_allocs = [int(a) for a in unit_allocs]
        if sum(unit_allocs) != n * n:
            raise ValueError(
                f"allocations sum to {sum(unit_allocs)}, expected {n * n}"
            )
        if process_allocs is None:
            process_allocs = self._expand_to_processes(units, unit_allocs)
        return MatMulPlan(
            n=n,
            strategy=strategy,
            units=tuple(units),
            unit_allocations=tuple(unit_allocs),
            process_allocations=tuple(process_allocs),
        )

    # ------------------------------------------------------------ execute
    def processes(self) -> list[DeviceBoundProcess]:
        """All ranks of the node with their kernels and contention state.

        The binding is fixed per instance, so the ranks are bound once
        and a fresh list returned on every call.
        """
        if self._processes is None:
            self._processes = tuple(
                bind_processes(
                    self.binding,
                    self.bench.sockets,
                    self.bench.gpus,
                    gpu_version=self.gpu_version,
                )
            )
        return list(self._processes)

    def execute(self, plan: MatMulPlan) -> ExecutionResult:
        """Simulate the application run for a resolved plan."""
        comm = SimulatedComm(self.binding.num_processes, self.comm_model)
        return simulate_execution(
            self.processes(), plan.partition, comm, self.node.block_size
        )

    def execute_events(
        self,
        plan: MatMulPlan,
        *,
        panels: int | None = None,
    ) -> ExecutionResult:
        """Play the run on the event engine, one batched panel per iteration.

        Same profile as :meth:`execute` but simulated panel by panel
        (:func:`repro.app.execution.simulate_execution_events`); ``panels``
        defaults to all ``n`` main-loop iterations.
        """
        comm = SimulatedComm(self.binding.num_processes, self.comm_model)
        return simulate_execution_events(
            self.processes(),
            plan.partition,
            comm,
            self.node.block_size,
            panels=panels,
        )

    def run(
        self,
        n: int,
        strategy: PartitioningStrategy | str = PartitioningStrategy.FPM,
    ) -> tuple[MatMulPlan, ExecutionResult]:
        """Plan and execute in one call."""
        plan = self.plan(n, strategy)
        return plan, self.execute(plan)

    # ------------------------------------------------------------ helpers
    def _even_process_allocations(self, total: int) -> list[int]:
        p = self.binding.num_processes
        base, extra = divmod(total, p)
        return [base + (1 if r < extra else 0) for r in range(p)]

    def _expand_to_processes(
        self, units: list[ComputeUnit], unit_allocs: list[int]
    ) -> list[int]:
        """Split each unit's blocks evenly over its member processes."""
        process_allocs = [0] * self.binding.num_processes
        for unit, alloc in zip(units, unit_allocs):
            members = unit.member_ranks
            base, extra = divmod(alloc, len(members))
            for i, rank in enumerate(members):
                process_allocs[rank] = base + (1 if i < extra else 0)
        return process_allocs
