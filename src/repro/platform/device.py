"""Simulated processing elements of the hybrid node.

Devices are *deterministic* time oracles — measurement noise belongs to the
measurement layer (:mod:`repro.measurement`), mirroring reality where the
hardware is what it is and the noise enters through timing.

Device taxonomy (paper Section III):

* :class:`SimulatedCore` — one CPU core running the CPU GEMM kernel; its
  speed depends on its per-core problem area, on how many sibling cores run
  the kernel simultaneously, and on whether a GPU process is busy on the
  same socket.
* :class:`SimulatedSocket` — a group of cores measured together (the paper's
  unit of CPU performance modelling).
* :class:`SimulatedGpu` — a GPU plus its PCIe link and memory model; exposes
  compute/transfer primitives from which :mod:`repro.kernels.gemm_gpu`
  assembles the three kernel versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.platform.contention import CpuGpuInterference, SocketContention
from repro.platform.memory import (
    CoreCacheModel,
    GpuMemoryModel,
    blocking_factor_efficiency,
)
from repro.platform.pcie import PcieLink
from repro.platform.spec import GpuSpec, NodeSpec, SocketSpec
from repro.util.units import gemm_kernel_flops
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class SimulatedCore:
    """One CPU core of a socket, running the CPU GEMM kernel."""

    name: str
    socket: SocketSpec
    interference: CpuGpuInterference
    block_size: int

    @cached_property
    def cache(self) -> CoreCacheModel:
        return CoreCacheModel(self.socket.cpu)

    @cached_property
    def contention(self) -> SocketContention:
        return SocketContention(self.socket.contention_alpha)

    def rate_gflops(
        self,
        per_core_area_blocks,
        active_cores: int = 1,
        gpu_active: bool = False,
    ):
        """Effective GEMM rate of this core at each (validated) per-core
        area, under the given sharing state."""
        solo = self.cache.core_rate_gflops(per_core_area_blocks)
        return (
            solo
            * blocking_factor_efficiency(
                self.block_size, self.socket.cpu.gemm_halfpoint_elems
            )
            * self.contention.efficiency(active_cores)
            * self.interference.cpu_speed_factor(gpu_active)
        )

    def kernel_time(
        self,
        per_core_area_blocks,
        active_cores: int = 1,
        gpu_active: bool = False,
    ):
        """Seconds for ONE kernel run (``C_i += A_(b) x B_(b)``) on this
        core, at each per-core area (a zero area takes 0.0 s)."""
        areas = np.asarray(per_core_area_blocks, dtype=np.float64)
        flops = gemm_kernel_flops(areas, self.block_size)
        rates = self.rate_gflops(areas, active_cores, gpu_active)
        return flops / (rates * 1e9)


@dataclass(frozen=True)
class SimulatedSocket:
    """A socket measured as a group of ``c`` cores running kernels together.

    The paper's CPU speed functions ``s_c(x)`` give the aggregate socket
    speed when the socket's area ``x`` is split evenly across ``c`` active
    cores (``x / c`` each).
    """

    name: str
    spec: SocketSpec
    interference: CpuGpuInterference
    block_size: int

    @cached_property
    def _cores(self) -> tuple[SimulatedCore, ...]:
        return tuple(
            SimulatedCore(f"{self.name}.core{i}", self.spec, self.interference, self.block_size)
            for i in range(self.spec.cores)
        )

    def core(self, index: int = 0) -> SimulatedCore:
        """One of the socket's (identical) cores, built once per socket."""
        if not 0 <= index < self.spec.cores:
            raise ValueError(f"core index {index} out of range on {self.name}")
        return self._cores[index]

    def kernel_time(
        self,
        socket_area_blocks,
        active_cores: int | None = None,
        gpu_active: bool = False,
    ):
        """Seconds for one kernel run at each socket area, split evenly.

        All active cores run identical shares in lockstep, so the group
        finishes when each core's run finishes.
        """
        cores = self.spec.cores if active_cores is None else active_cores
        check_positive_int("active_cores", cores)
        if cores > self.spec.cores:
            raise ValueError(
                f"{cores} active cores requested but {self.name} has "
                f"{self.spec.cores}"
            )
        per_core = np.asarray(socket_area_blocks, dtype=np.float64) / cores
        return self.core(0).kernel_time(per_core, cores, gpu_active)


@dataclass(frozen=True)
class SimulatedGpu:
    """A GPU, its PCIe link, memory model and host-side interference state."""

    name: str
    spec: GpuSpec
    interference: CpuGpuInterference
    socket_cores: int
    block_size: int

    @cached_property
    def memory(self) -> GpuMemoryModel:
        return GpuMemoryModel(self.spec, self.block_size)

    @cached_property
    def pcie(self) -> PcieLink:
        return PcieLink(self.spec, staging_blocks=self.memory.resident_capacity_blocks())

    def kernel_rate_gflops(
        self,
        tile_area_blocks,
        aligned=True,
        aspect: float = 1.0,
    ):
        """On-device GEMM rate at each tile area (saturating with tile size).

        ``aligned`` is a bool or a per-tile mask: misaligned tiles pay the
        CUBLAS shape penalty.  ``aspect`` is the tiles' rows/cols ratio:
        nearly square tiles run at full rate (the paper's Section IV
        assumption), extreme strips pay a small quadratic-in-log penalty.
        Areas are validated (>= 0) by the calling kernel; a zero area gets
        the vacuous peak rate.
        """
        check_positive("aspect", aspect)
        areas = np.asarray(tile_area_blocks, dtype=np.float64)
        rates = self.spec.peak_gflops * areas / (areas + self.spec.rate_half_blocks)
        rates = rates * blocking_factor_efficiency(
            self.block_size, self.spec.gemm_halfpoint_elems
        )
        if aspect != 1.0 and self.spec.aspect_penalty > 0.0:
            rates = rates / (1.0 + self.spec.aspect_penalty * math.log2(aspect) ** 2)
        rates = np.where(aligned, rates, rates / self.spec.misalignment_penalty)
        return np.where(areas == 0.0, self.spec.peak_gflops, rates)

    def compute_time(
        self,
        tile_area_blocks,
        aligned=True,
        busy_cpu_cores: int = 0,
    ):
        """Seconds of on-device GEMM for each tile of ``C``.

        ``busy_cpu_cores`` — CPU kernels running on the host socket slow the
        combined GPU process down (paper Fig. 5b); the slowdown is applied
        uniformly to the GPU's contributions.
        """
        areas = np.asarray(tile_area_blocks, dtype=np.float64)
        flops = gemm_kernel_flops(areas, self.block_size)
        rates = self.kernel_rate_gflops(areas, aligned)
        rates = rates * self.interference.gpu_speed_factor(
            busy_cpu_cores, self.socket_cores
        )
        return flops / (rates * 1e9)

    def upload_pivots_time(self, area_blocks, busy_cpu_cores: int = 0):
        """Seconds to send the pivot column and row pieces for each area."""
        nbytes = self.memory.pivot_blocks(area_blocks) * self.memory.block_bytes
        times = self.pcie.contiguous_time(nbytes)
        return times / self.interference.gpu_speed_factor(
            busy_cpu_cores, self.socket_cores
        )

    def transfer_c_time(
        self,
        tile_area_blocks,
        footprint_blocks: float,
        busy_cpu_cores: int = 0,
        kernel_active=False,
    ):
        """Seconds for a one-way pitched transfer of each C rectangle.

        ``footprint_blocks`` is the area of the whole host submatrix being
        walked (drives the staging bandwidth decay, so one kernel run's
        rectangles share one bandwidth); ``kernel_active`` applies the
        concurrent-copy slowdown for overlapped schedules, and as a boolean
        array it broadcasts against the tiles (``[[False], [True]]`` prices
        the idle and the overlapped copies of a run in one call).
        """
        areas = np.asarray(tile_area_blocks, dtype=np.float64)
        nbytes = areas * self.memory.block_bytes
        times = self.pcie.pitched_time(nbytes, footprint_blocks)
        times = times / self.pcie.concurrent_copy_factor(kernel_active)
        return times / self.interference.gpu_speed_factor(
            busy_cpu_cores, self.socket_cores
        )


def build_devices(
    node: NodeSpec,
) -> tuple[list[SimulatedSocket], list[SimulatedGpu]]:
    """Instantiate the simulated devices of a node specification."""
    interference = CpuGpuInterference(
        gpu_drop_max=node.gpu_interference_drop,
        cpu_drop=node.cpu_interference_drop,
    )
    sockets = [
        SimulatedSocket(
            name=f"{node.name}.socket{i}",
            spec=node.socket_spec(i),
            interference=interference,
            block_size=node.block_size,
        )
        for i in range(node.num_sockets)
    ]
    gpus = [
        SimulatedGpu(
            name=f"{node.name}.{att.gpu.name}",
            spec=att.gpu,
            interference=interference,
            socket_cores=node.socket_spec(att.socket_index).cores,
            block_size=node.block_size,
        )
        for att in node.gpus
    ]
    return sockets, gpus
