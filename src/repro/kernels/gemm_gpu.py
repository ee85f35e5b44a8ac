"""The GPU GEMM kernel in the paper's three versions (Section V, Fig. 3/4).

All versions model the *combined* performance of the GPU and its dedicated
host core, including host <-> device transfers — the quantity the paper's
GPU speed functions ``g(x)`` capture.

* **Version 1** — the pivot pieces and the ``C_i`` rectangle live in host
  memory; every kernel run uploads them, computes, and downloads ``C_i``.
  For areas beyond device capacity it processes ``C_i`` tile-by-tile (no
  residency, no savings) — a natural extension so the speed function stays
  defined across the whole studied range, as plotted in Fig. 3.
* **Version 2** — ``C_i`` accumulates on the device while it fits; beyond
  capacity it updates out-of-core rectangles serially, keeping the last two
  resident and reversing the order every other run (saves two transfers in
  each direction per run).  Where version 1's larger tiles are cheaper
  (a slow device whose rate still climbs at half-memory tiles), it runs
  version 1's tiling instead of losing to it.
* **Version 3** — version 2 plus overlap of communication and computation
  via double buffers (A0/A1, B0, C0/C1) and the device's DMA engines.

:class:`InCoreGpuGemmKernel` is the plain CUBLAS behaviour: valid only while
the data fits device memory (the paper's note that without out-of-core
extensions the FPM "can be defined only for the range of problem sizes that
fit the local memory of GPU").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.kernels.interface import KernelRange, as_area_array
from repro.kernels.outofcore import TilingPlan, near_square_shape, plan_tiling
from repro.kernels.overlap import TileWork, overlap_makespan, schedule_overlap
from repro.platform.device import SimulatedGpu
from repro.util.validation import check_nonnegative

#: ``kernel_active`` rows pricing a run's idle and overlapped C copies at once.
_IDLE_AND_ACTIVE = np.array([[False], [True]])


@dataclass(frozen=True)
class _GpuGemmKernelBase:
    """Shared machinery of the GPU kernel versions.

    Areas up to :meth:`_resident_limit` are priced device-resident in one
    vectorised pass; each larger area is one out-of-core run priced by the
    version's :meth:`_tiled_time`.
    """

    gpu: SimulatedGpu
    label: ClassVar[str]

    @property
    def name(self) -> str:
        return f"gpu-gemm-{self.label}[{self.gpu.name}]"

    @property
    def block_size(self) -> int:
        return self.gpu.block_size

    @property
    def valid_range(self) -> KernelRange:
        return KernelRange()

    @property
    def memory_limit_blocks(self) -> float:
        """The in-core capacity — Fig. 3's vertical "memory limit" line."""
        return self.gpu.memory.resident_capacity_blocks()

    def run_time(self, area_blocks: float, busy_cpu_cores: int = 0) -> float:
        check_nonnegative("area_blocks", area_blocks)
        self.valid_range.require(area_blocks, self.name)
        return float(self.run_time_batch((area_blocks,), busy_cpu_cores)[0])

    def run_time_batch(self, area_blocks, busy_cpu_cores: int = 0) -> np.ndarray:
        """Ideal seconds at each area: vectorised while device-resident,
        one tiled run per out-of-core area."""
        areas = as_area_array(area_blocks)
        out = np.zeros(areas.size)
        resident = areas <= self._resident_limit()
        if resident.any():
            out[resident] = self._resident_time(areas[resident], busy_cpu_cores)
        for i in np.flatnonzero(~resident).tolist():
            out[i] = self._tiled_time(float(areas[i]), busy_cpu_cores)
        return out

    def _resident_limit(self) -> float:
        return self.memory_limit_blocks

    def _resident_time(self, areas: np.ndarray, busy_cpu_cores: int) -> np.ndarray:
        """Device-resident run time per area: pivot upload + one aligned compute."""
        return self.gpu.upload_pivots_time(
            areas, busy_cpu_cores
        ) + self.gpu.compute_time(areas, True, busy_cpu_cores)

    def _tiling(self, area_blocks: float, buffered: int, keep_resident: int) -> TilingPlan:
        rows, cols = near_square_shape(area_blocks, self.block_size)
        capacity = self.gpu.memory.out_of_core_tile_blocks(buffered)
        return plan_tiling(
            rows,
            cols,
            tile_capacity_blocks=capacity,
            block_size=self.block_size,
            alignment=self.gpu.spec.alignment_unit,
            keep_resident=keep_resident,
        )

    def _unbuffered_tiling(self, area_blocks: float) -> TilingPlan:
        """Version 1's tiling: one C buffer, nothing kept resident between runs."""
        return self._tiling(area_blocks, buffered=1, keep_resident=0)

    def _run_costs(
        self, plans, area_blocks: float, busy_cpu_cores: int, kernel_active
    ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Pivot upload, and each plan's per-tile compute and C transfer.

        A run's candidate tilings are priced together, in one call each for
        all their tiles; ``kernel_active`` is passed to
        :meth:`SimulatedGpu.transfer_c_time` and the transfers are split
        along their last axis.
        """
        pivot = float(self.gpu.upload_pivots_time(area_blocks, busy_cpu_cores))
        tile_areas = np.concatenate([p.tile_area_blocks for p in plans])
        compute = self.gpu.compute_time(
            tile_areas, np.concatenate([p.aligned_mask for p in plans]), busy_cpu_cores
        )
        transfer = self.gpu.transfer_c_time(
            tile_areas, area_blocks, busy_cpu_cores, kernel_active
        )
        cuts = np.cumsum([p.num_tiles for p in plans[:-1]])
        return pivot, np.split(compute, cuts), np.split(transfer, cuts, axis=-1)


def _serial_time(
    plan: TilingPlan, pivot: float, compute: np.ndarray, transfer: np.ndarray
) -> float:
    """Synchronous run time: pivot upload, then each tile's upload, compute
    and download back to back.

    A strict left fold in schedule order; a resident tile's missing
    transfers add ``+0.0``, so the sum equals adding only the transfers
    that happen.
    """
    upload = np.where(plan.upload_mask, transfer, 0.0)
    download = np.where(plan.download_mask, transfer, 0.0)
    total = pivot
    for step in np.column_stack((upload, compute, download)).ravel().tolist():
        total += step
    return total


def _works(
    plan: TilingPlan, pivot: float, compute: np.ndarray, transfer: np.ndarray
) -> tuple[TileWork, ...]:
    """Per-tile (upload, compute, download) durations of one run.

    Every tile's upload carries an equal share of the pivot upload.
    """
    share = pivot / plan.num_tiles
    upload = np.where(plan.upload_mask, share + transfer, share)
    download = np.where(plan.download_mask, transfer, 0.0)
    return tuple(
        TileWork(upload=u, compute=c, download=d)
        for u, c, d in zip(upload.tolist(), compute.tolist(), download.tolist())
    )


@dataclass(frozen=True)
class GpuGemmKernelV1(_GpuGemmKernelBase):
    """Version 1: C accumulates in host memory; full transfers every run."""

    label = "v1"

    def _resident_limit(self) -> float:
        return 0.0  # nothing stays on the device: every nonzero area is tiled

    def _tiled_time(self, area_blocks: float, busy_cpu_cores: int) -> float:
        plan = self._unbuffered_tiling(area_blocks)
        pivot, (compute,), (transfer,) = self._run_costs(
            (plan,), area_blocks, busy_cpu_cores, False
        )
        return _serial_time(plan, pivot, compute, transfer)


@dataclass(frozen=True)
class GpuGemmKernelV2(_GpuGemmKernelBase):
    """Version 2: device-resident C, serial out-of-core tiling beyond capacity."""

    label = "v2"

    def _tiled_time(self, area_blocks: float, busy_cpu_cores: int) -> float:
        plans = (
            self._tiling(area_blocks, buffered=2, keep_resident=2),
            self._unbuffered_tiling(area_blocks),
        )
        pivot, computes, transfers = self._run_costs(
            plans, area_blocks, busy_cpu_cores, False
        )
        # Keeping two tiles resident halves them; on a device whose rate
        # still climbs at that size, the smaller tiles' compute loss can
        # outweigh the saved transfers, and a sane runtime keeps version
        # 1's tiling — version 2 degenerates to version 1 rather than
        # losing to it.
        return min(
            _serial_time(plan, pivot, compute, transfer)
            for plan, compute, transfer in zip(plans, computes, transfers)
        )


@dataclass(frozen=True)
class GpuGemmKernelV3(_GpuGemmKernelBase):
    """Version 3: out-of-core with communication/computation overlap.

    In the resident range the only transfers are the tiny pivot pieces;
    overlap cannot help, so v3 == v2 there (Fig. 3).
    """

    label = "v3"

    def _tiled_time(self, area_blocks: float, busy_cpu_cores: int) -> float:
        plan = self._tiling(area_blocks, buffered=2, keep_resident=2)
        fallback = self._unbuffered_tiling(area_blocks)
        pivot, (compute, fallback_compute), ((idle, active), (fallback_idle, _)) = (
            self._run_costs((plan, fallback), area_blocks, busy_cpu_cores, _IDLE_AND_ACTIVE)
        )
        overlapped = overlap_makespan(
            _works(plan, pivot, compute, active),
            self.gpu.spec.dma_engines,
            c_buffers=2,
        )
        # On devices where the concurrent-copy penalty outweighs the
        # overlap (tiny memory, single engine, slow link), a sane runtime
        # falls back to the synchronous path — version 3 degenerates to
        # version 2 rather than losing to it.
        return min(
            overlapped,
            _serial_time(plan, pivot, compute, idle),
            _serial_time(fallback, pivot, fallback_compute, fallback_idle),
        )

    def schedule(self, area_blocks: float, busy_cpu_cores: int = 0):
        """The full overlap schedule for one run (for inspection and tests)."""
        plan = self._tiling(area_blocks, buffered=2, keep_resident=2)
        pivot, (compute,), (transfer,) = self._run_costs(
            (plan,), area_blocks, busy_cpu_cores, True
        )
        works = _works(plan, pivot, compute, transfer)
        return schedule_overlap(list(works), self.gpu.spec.dma_engines, c_buffers=2)


@dataclass(frozen=True)
class InCoreGpuGemmKernel(_GpuGemmKernelBase):
    """Plain CUBLAS behaviour: undefined beyond device capacity."""

    label = "incore"

    @property
    def valid_range(self) -> KernelRange:
        return KernelRange(max_blocks=self.memory_limit_blocks)

    def run_time_batch(self, area_blocks, busy_cpu_cores: int = 0) -> np.ndarray:
        """Ideal seconds at each (in-core) area, fully vectorised."""
        areas = as_area_array(area_blocks)
        valid = self.valid_range
        for area in areas.tolist():
            valid.require(area, self.name)
        return self._resident_time(areas, busy_cpu_cores)


_VERSIONS = {
    1: GpuGemmKernelV1,
    2: GpuGemmKernelV2,
    3: GpuGemmKernelV3,
}


def gpu_kernel(gpu: SimulatedGpu, version: int = 3):
    """Factory: the GPU kernel of the requested paper version (1, 2 or 3)."""
    try:
        cls = _VERSIONS[version]
    except KeyError:
        raise ValueError(
            f"unknown GPU kernel version {version}; paper defines 1, 2, 3"
        ) from None
    return cls(gpu=gpu)
