"""A second application kernel: the 5-point Jacobi stencil.

The paper's introduction motivates FPMs with data-parallel scientific
codes beyond linear algebra — digital signal processing, computational
fluid dynamics.  This module provides such a workload: one Jacobi sweep
over a strip of grid rows, the kernel of an iterative 2D heat/CFD solver.

Its performance profile is the *opposite* of GEMM, which is exactly why
the FPM approach (model each application empirically) matters:

* the CPU kernel is **memory-bandwidth bound** — a socket saturates its
  DDR bus with two or three active cores, so socket speed barely grows
  with the core count (contrast Fig. 2's compute-bound scaling);
* the GPU kernel is superb while the strip is device-resident (the GPU's
  memory bandwidth dwarfs the socket's) but *catastrophic* out-of-core —
  every sweep must stream the whole strip over PCIe, so past device
  memory the GPU is slower than one socket.

Problem-size unit: **grid rows** of a fixed-width (``width`` cells) strip,
single precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.interface import KernelRange, as_area_array
from repro.platform.device import SimulatedGpu, SimulatedSocket
from repro.util.validation import check_nonnegative, check_positive_int

#: Flops per cell of one 5-point Jacobi update (4 adds + 1 multiply).
FLOPS_PER_CELL = 5.0
#: Effective DRAM traffic per cell (streamed read + write; vertical
#: neighbours hit in cache).
TRAFFIC_BYTES_PER_CELL = 8.0
#: Single-precision bytes per cell.
CELL_BYTES = 4.0
#: Fraction of a core's GEMM peak a scalar stencil loop sustains.
CPU_STENCIL_FLOP_FRACTION = 0.15
#: Per-kernel-launch / per-row loop overhead on the CPU (seconds).
CPU_SWEEP_OVERHEAD_S = 2.0e-5
#: GPU sweep launch overhead (seconds).
GPU_SWEEP_OVERHEAD_S = 1.0e-4


@dataclass(frozen=True)
class CpuStencilKernel:
    """One Jacobi sweep on ``active_cores`` cores of a socket.

    ``run_time(rows)`` is the time for the socket group to sweep ``rows``
    grid rows split evenly across its cores: the maximum of the cores'
    aggregate flop time and the socket's memory-bandwidth time — the
    roofline of a streaming kernel.
    """

    socket: SimulatedSocket
    active_cores: int
    width: int
    gpu_active: bool = False

    def __post_init__(self) -> None:
        check_positive_int("active_cores", self.active_cores)
        check_positive_int("width", self.width)
        if self.active_cores > self.socket.spec.cores:
            raise ValueError(
                f"active_cores={self.active_cores} exceeds the "
                f"{self.socket.spec.cores} cores of {self.socket.name}"
            )

    @property
    def name(self) -> str:
        suffix = "+gpu" if self.gpu_active else ""
        return f"cpu-stencil[{self.socket.name}:c{self.active_cores}{suffix}]"

    @property
    def block_size(self) -> int:
        # problem-size unit is one grid row; keep the Kernel protocol happy
        return 1

    @property
    def valid_range(self) -> KernelRange:
        return KernelRange()

    def run_time(self, rows: float, busy_cpu_cores: int = 0) -> float:
        """Seconds for one sweep of ``rows`` rows on the core group."""
        check_nonnegative("rows", rows)
        return float(self.run_time_batch((rows,), busy_cpu_cores)[0])

    def run_time_batch(self, rows, busy_cpu_cores: int = 0) -> np.ndarray:
        """Roofline sweep time at each row count, fully vectorised."""
        del busy_cpu_cores
        areas = as_area_array(rows)
        cells = areas * self.width
        flops = cells * FLOPS_PER_CELL
        core_rate = (
            self.socket.spec.cpu.peak_gflops
            * 1e9
            * CPU_STENCIL_FLOP_FRACTION
        )
        interference = 1.0
        if self.gpu_active:
            interference = 1.0 - 0.015
        flop_time = flops / (core_rate * self.active_cores * interference)
        bw = self.socket.spec.mem_bandwidth_gbs * 1e9 * interference
        bw_time = cells * TRAFFIC_BYTES_PER_CELL / bw
        sweep = np.maximum(flop_time, bw_time) + CPU_SWEEP_OVERHEAD_S
        return np.where(areas == 0.0, 0.0, sweep)


@dataclass(frozen=True)
class GpuStencilKernel:
    """One Jacobi sweep on a GPU strip (device-resident or streamed).

    While two copies of the strip (Jacobi ping-pong buffers) fit device
    memory, a sweep costs device-bandwidth time plus the per-iteration
    halo exchange over PCIe.  Beyond capacity the kernel keeps the
    resident part on the device and streams only the excess rows through
    spare buffers each sweep — the stencil analogue of the paper's
    out-of-core GEMM, extending the model past the memory limit with a
    steep (PCIe-bound) but finite slope instead of a wall.
    """

    gpu: SimulatedGpu
    width: int
    #: With ``streamed=False`` the kernel has no out-of-core path: its
    #: valid range ends at device capacity (the paper's plain-CUBLAS
    #: situation), and FPM partitioning caps the GPU's allocation there.
    streamed: bool = True

    def __post_init__(self) -> None:
        check_positive_int("width", self.width)

    @property
    def name(self) -> str:
        mode = "streamed" if self.streamed else "resident"
        return f"gpu-stencil[{self.gpu.name}:{mode}]"

    @property
    def block_size(self) -> int:
        return 1

    @property
    def valid_range(self) -> KernelRange:
        if self.streamed:
            return KernelRange()
        return KernelRange(max_blocks=self.resident_capacity_rows)

    @property
    def resident_capacity_rows(self) -> float:
        """Rows whose ping-pong buffers fit usable device memory."""
        usable = self.gpu.spec.usable_memory_mb * 1024 * 1024
        return usable / (2.0 * self.width * CELL_BYTES)

    def fits_resident(self, rows: float) -> bool:
        return rows <= self.resident_capacity_rows

    def run_time(self, rows: float, busy_cpu_cores: int = 0) -> float:
        """Seconds for one sweep of ``rows`` rows."""
        check_nonnegative("rows", rows)
        self.valid_range.require(rows, self.name)
        return float(self.run_time_batch((rows,), busy_cpu_cores)[0])

    def run_time_batch(self, rows, busy_cpu_cores: int = 0) -> np.ndarray:
        """Sweep time at each row count: device-bandwidth term plus halo,
        with the streamed-excess PCIe term past residency, vectorised."""
        areas = as_area_array(rows)
        valid = self.valid_range
        for area in areas.tolist():
            valid.require(area, self.name)
        cells = areas * self.width
        slow = self.gpu.interference.gpu_speed_factor(
            busy_cpu_cores, self.gpu.socket_cores
        )
        sweep = (
            cells
            * TRAFFIC_BYTES_PER_CELL
            / (self.gpu.spec.mem_bandwidth_gbs * 1e9)
        )
        halo = self.gpu.pcie.contiguous_time(2 * self.width * CELL_BYTES) * 2
        total = sweep + halo + GPU_SWEEP_OVERHEAD_S
        excess_rows = areas - self.resident_capacity_rows
        streamed = excess_rows > 0
        if streamed.any():
            # stream only the non-resident rows: up and down each sweep,
            # pitched pageable transfers (footprint scaled to the device's
            # staging capacity as for the GEMM kernels)
            excess_bytes = excess_rows[streamed] * self.width * CELL_BYTES
            bw = self.gpu.pcie.pitched_bandwidth_gbs(
                areas[streamed]
                / self.resident_capacity_rows
                * self.gpu.pcie.staging_blocks
            )
            total[streamed] = total[streamed] + 2.0 * excess_bytes / (bw * 1e9)
        return np.where(areas == 0.0, 0.0, total / slow)


def numpy_jacobi_sweep(grid: np.ndarray, out: np.ndarray) -> None:
    """One real 5-point Jacobi sweep (interior only, in ``out``).

    Boundary rows/columns are copied unchanged — the usual fixed
    (Dirichlet) boundary condition.
    """
    if grid.shape != out.shape or grid.ndim != 2:
        raise ValueError(
            f"grid and out must be equal 2-D arrays, got {grid.shape} "
            f"and {out.shape}"
        )
    out[:] = grid
    out[1:-1, 1:-1] = 0.25 * (
        grid[:-2, 1:-1] + grid[2:, 1:-1] + grid[1:-1, :-2] + grid[1:-1, 2:]
    )
