"""The second application: an iterative Jacobi solver on a 2D grid.

Demonstrates the paper's central point that FPMs are *application
specific*: the same node, modelled for the stencil kernel instead of GEMM,
yields completely different speed functions (bandwidth-bound sockets, a
GPU with a brutal out-of-core cliff) — and the same FPM partitioning
machinery balances it without any code changes above the kernel layer.

The grid is partitioned into contiguous **row strips** (stencils need
halo exchange with neighbours, so 1D contiguity matters); workload unit =
grid rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fpm import FunctionalPerformanceModel
from repro.core.integer import refine_integer_partition, round_partition
from repro.core.solver import Solver
from repro.core.cpm import cpms_from_even_split
from repro.kernels.stencil import (
    CELL_BYTES,
    CpuStencilKernel,
    GpuStencilKernel,
    numpy_jacobi_sweep,
)
from repro.measurement.fpm_builder import FpmBuilder, SizeGrid
from repro.measurement.benchmark import HybridBenchmark
from repro.platform.spec import NodeSpec
from repro.runtime.mpi_sim import CommModel
from repro.runtime.panel_loop import simulate_panel_loop
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class StripPartition:
    """Contiguous row strips, one per compute unit (top to bottom)."""

    total_rows: int
    rows_per_unit: tuple[int, ...]

    def __post_init__(self) -> None:
        check_positive_int("total_rows", self.total_rows)
        if any(r < 0 for r in self.rows_per_unit):
            raise ValueError("strip heights must be non-negative")
        if sum(self.rows_per_unit) != self.total_rows:
            raise ValueError(
                f"strips cover {sum(self.rows_per_unit)} rows, expected "
                f"{self.total_rows}"
            )

    def bounds(self) -> list[tuple[int, int]]:
        """(start, end) row of each strip (empty strips collapse)."""
        out = []
        start = 0
        for rows in self.rows_per_unit:
            out.append((start, start + rows))
            start += rows
        return out


@dataclass(frozen=True)
class JacobiResult:
    """Simulated timings of an iterative Jacobi run."""

    iterations: int
    total_time: float
    sweep_time_per_unit: tuple[float, ...]
    halo_time: float

    @property
    def imbalance(self) -> float:
        working = [t for t in self.sweep_time_per_unit if t > 0]
        return max(working) / min(working) if working else 1.0


class JacobiApp:
    """The stencil application bound to a (simulated) hybrid node."""

    def __init__(
        self,
        node: NodeSpec,
        width: int = 16384,
        seed: int = 42,
        noise_sigma: float = 0.02,
        comm_model: CommModel | None = None,
        streamed_gpu: bool = True,
    ):
        check_positive_int("width", width)
        self.node = node
        self.width = width
        self.streamed_gpu = streamed_gpu
        self.bench = HybridBenchmark(node, seed=seed, noise_sigma=noise_sigma)
        self.comm_model = comm_model or CommModel()
        self._models: dict[str, FunctionalPerformanceModel] = {}

    # ------------------------------------------------------------ kernels
    def unit_kernels(self) -> dict[str, object]:
        """One stencil kernel per compute unit (GPUs first, then sockets)."""
        kernels: dict[str, object] = {}
        for gpu_index, att in enumerate(self.node.gpus):
            kernels[att.gpu.name] = GpuStencilKernel(
                gpu=self.bench.gpus[gpu_index],
                width=self.width,
                streamed=self.streamed_gpu,
            )
        for s in range(self.node.num_sockets):
            cpu_cores = self.node.socket_spec(s).cores - len(self.node.gpus_on_socket(s))
            if cpu_cores == 0:
                continue
            kernels[f"socket{s}:c{cpu_cores}"] = CpuStencilKernel(
                socket=self.bench.sockets[s],
                active_cores=cpu_cores,
                width=self.width,
                gpu_active=bool(self.node.gpus_on_socket(s)),
            )
        return kernels

    # ------------------------------------------------------------- models
    def build_models(
        self, max_rows: float, points: int = 12, adaptive: bool = True
    ) -> dict:
        """Benchmark every unit's stencil kernel into an FPM.

        Speeds are in the builder's internal units (rows-proportional);
        only ratios matter to the partitioner.  Adaptive refinement runs
        deep (6 rounds) because the streamed GPU kernel's capacity cliff
        is near-vertical — the model must localise it to a few hundred
        rows or the partitioner overshoots into the catastrophic regime.
        """
        builder = FpmBuilder(self.bench, max_adaptive_rounds=6)
        grid = SizeGrid.geometric(64.0, max_rows, points)
        for name, kernel in self.unit_kernels().items():
            if name not in self._models:
                model = builder.build(kernel, grid, name=name, adaptive=adaptive)
                self._models[name] = model.repaired()
        return dict(self._models)

    def models(self) -> list[FunctionalPerformanceModel]:
        kernels = self.unit_kernels()
        missing = [n for n in kernels if n not in self._models]
        if missing:
            raise ValueError(
                f"no stencil models for {missing}; call build_models() first"
            )
        return [self._models[n] for n in kernels]

    # --------------------------------------------------------------- plan
    def plan(self, rows: int, strategy: str = "fpm") -> StripPartition:
        """Partition grid rows across the units."""
        check_positive_int("rows", rows)
        names = list(self.unit_kernels())
        if strategy == "homogeneous":
            base, extra = divmod(rows, len(names))
            alloc = [base + (1 if i < extra else 0) for i in range(len(names))]
        elif strategy == "fpm":
            models = self.models()
            # the held result lets the rounding reuse the solve's rows
            result = Solver().solve(models, float(rows))
            alloc = round_partition(models, list(result.allocations), rows)
            alloc = refine_integer_partition(models, alloc)
        elif strategy == "cpm":
            models = self.models()
            constants = cpms_from_even_split(models, calibration_total=2048.0)
            continuous = list(
                Solver(strategy="cpm").solve(constants, float(rows)).allocations
            )
            alloc = round_partition(
                [c.speed for c in constants], continuous, rows
            )
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        return StripPartition(total_rows=rows, rows_per_unit=tuple(alloc))

    # ------------------------------------------------------------ execute
    def execute(self, partition: StripPartition, iterations: int) -> JacobiResult:
        """Simulate ``iterations`` sweeps with per-iteration halo exchange."""
        check_positive_int("iterations", iterations)
        kernels = list(self.unit_kernels().values())
        if len(kernels) != len(partition.rows_per_unit):
            raise ValueError(
                f"partition has {len(partition.rows_per_unit)} strips but the "
                f"node has {len(kernels)} units"
            )
        sweeps = [
            k.run_time(float(r)) if r > 0 else 0.0
            for k, r in zip(kernels, partition.rows_per_unit)
        ]
        halo_bytes = self.width * CELL_BYTES
        halo = 2.0 * self.comm_model.p2p_time(halo_bytes)
        step = max(sweeps) + halo
        return JacobiResult(
            iterations=iterations,
            total_time=iterations * step,
            sweep_time_per_unit=tuple(iterations * t for t in sweeps),
            halo_time=iterations * halo,
        )

    def execute_events(
        self,
        partition: StripPartition,
        iterations: int,
    ) -> JacobiResult:
        """Event-engine twin of :meth:`execute`, one panel per sweep.

        Each Jacobi iteration becomes one barrier-synchronised generation
        (:func:`repro.runtime.panel_loop.simulate_panel_loop`): the halo
        exchange is charged per panel, then every unit sweeps its strip.
        On static inputs the totals agree with the analytic path to float
        accumulation order.
        """
        check_positive_int("iterations", iterations)
        kernels = list(self.unit_kernels().values())
        if len(kernels) != len(partition.rows_per_unit):
            raise ValueError(
                f"partition has {len(partition.rows_per_unit)} strips but the "
                f"node has {len(kernels)} units"
            )
        sweeps = [
            k.run_time(float(r)) if r > 0 else 0.0
            for k, r in zip(kernels, partition.rows_per_unit)
        ]
        halo_bytes = self.width * CELL_BYTES
        halo = 2.0 * self.comm_model.p2p_time(halo_bytes)
        result = simulate_panel_loop(sweeps, iterations, halo)
        return JacobiResult(
            iterations=iterations,
            total_time=result.total_time_s,
            sweep_time_per_unit=result.compute_time_s,
            halo_time=result.comm_time_s,
        )

    def run(
        self, rows: int, iterations: int, strategy: str = "fpm"
    ) -> tuple[StripPartition, JacobiResult]:
        """Plan and execute in one call."""
        partition = self.plan(rows, strategy)
        return partition, self.execute(partition, iterations)


def run_partitioned_jacobi(
    grid: np.ndarray, partition: StripPartition, iterations: int
) -> np.ndarray:
    """Execute real Jacobi sweeps strip by strip (numeric verification).

    Each strip owner updates its rows using one halo row from each
    neighbour — exactly the data the simulated halo exchange moves — and
    the result must equal whole-grid sweeping.
    """
    if grid.ndim != 2 or grid.shape[0] != partition.total_rows:
        raise ValueError(
            f"grid of {grid.shape} does not match partition over "
            f"{partition.total_rows} rows"
        )
    check_positive_int("iterations", iterations)
    current = grid.astype(np.float64, copy=True)
    scratch = np.empty_like(current)
    bounds = [(s, e) for s, e in partition.bounds() if e > s]
    for _ in range(iterations):
        full_new = np.empty_like(current)
        for start, end in bounds:
            lo = max(0, start - 1)
            hi = min(current.shape[0], end + 1)
            local = current[lo:hi]
            out = scratch[lo:hi]
            numpy_jacobi_sweep(local, out)
            # the sweep leaves local boundary rows untouched, which is
            # exactly right: global boundary rows stay fixed, halo rows are
            # someone else's interior and are not copied back
            full_new[start:end] = out[start - lo : end - lo]
        current = full_new
    return current


def reference_jacobi(grid: np.ndarray, iterations: int) -> np.ndarray:
    """Whole-grid Jacobi sweeps — the ground truth."""
    current = grid.astype(np.float64, copy=True)
    out = np.empty_like(current)
    for _ in range(iterations):
        numpy_jacobi_sweep(current, out)
        current, out = out, current
    return current
