"""Memory-hierarchy effects on kernel speed.

:class:`CoreCacheModel` shapes the per-core CPU GEMM rate as a function of
the per-core problem area: a warm-up ramp at small sizes and a gentle droop
once the working set outgrows the cache-friendly regime.  Together with the
socket contention model it generates speed functions with the paper's Fig. 2
shape.

:class:`GpuMemoryModel` answers capacity questions for the GPU kernels: how
many b x b blocks of ``C`` (plus pivot and double buffers) fit in usable
device memory.  It defines the out-of-core threshold — the vertical
"memory limit" line in the paper's Fig. 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.platform.spec import CpuSpec, GpuSpec
from repro.util.units import blocks_to_bytes
from repro.util.validation import check_nonnegative, check_positive


#: The blocking factor all calibration constants are normalised at.
REFERENCE_BLOCK_SIZE = 640


def blocking_factor_efficiency(
    block_size: int, halfpoint_elems: float, reference: int = REFERENCE_BLOCK_SIZE
) -> float:
    """GEMM rate multiplier for a blocking factor other than the reference.

    The kernel's inner dimension is ``b``; BLAS implementations approach
    peak as ``b / (b + halfpoint)`` (rank-k updates amortise memory traffic
    over more flops).  Normalised to 1.0 at the paper's b = 640 so the
    calibrated peak rates stay meaningful.
    """
    check_positive("block_size", block_size)
    check_nonnegative("halfpoint_elems", halfpoint_elems)
    if halfpoint_elems == 0.0:
        return 1.0
    raw = block_size / (block_size + halfpoint_elems)
    ref = reference / (reference + halfpoint_elems)
    return raw / ref


@dataclass(frozen=True)
class CoreCacheModel:
    """Size-dependent efficiency of one CPU core running the GEMM kernel."""

    cpu: CpuSpec

    def efficiency(self, per_core_area_blocks):
        """Multiplier in (0, 1] applied to the core's peak rate, per area.

        Takes a number or an array of areas, validated (>= 0) by the
        calling kernel.
        """
        a = np.asarray(per_core_area_blocks, dtype=np.float64)
        ramp = 1.0 - self.cpu.ramp_depth * np.exp(-a / self.cpu.ramp_blocks)
        over = np.maximum(0.0, a - self.cpu.mem_pressure_blocks)
        droop = 1.0 / (1.0 + self.cpu.mem_pressure_slope * over)
        return ramp * droop

    def core_rate_gflops(self, per_core_area_blocks):
        """Solo-core GEMM rate at each per-core problem area."""
        return self.cpu.peak_gflops * self.efficiency(per_core_area_blocks)


@dataclass(frozen=True)
class GpuMemoryModel:
    """Capacity accounting for GPU kernel buffers, in b x b blocks."""

    gpu: GpuSpec
    block_size: int

    def __post_init__(self) -> None:
        check_positive("block_size", self.block_size)

    @cached_property
    def block_bytes(self) -> float:
        """Single-precision bytes of one b x b block."""
        return blocks_to_bytes(1, self.block_size)

    @property
    def usable_blocks(self) -> float:
        """Usable device memory expressed in b x b blocks."""
        return self.gpu.usable_memory_mb * 1024.0 * 1024.0 / self.block_bytes

    def pivot_blocks(self, area_blocks):
        """Blocks needed by the pivot column and row pieces for each area ``x``.

        A near-square submatrix of area ``x`` has sides ``~sqrt(x)`` blocks,
        so the pivot column piece ``A_(b)`` holds ``sqrt(x)`` blocks and the
        pivot row piece ``B_(b)`` holds ``sqrt(x)`` blocks.  Areas are
        validated (>= 0) by the calling kernel.
        """
        return 2.0 * np.sqrt(np.asarray(area_blocks, dtype=np.float64))

    def resident_capacity_blocks(self) -> float:
        """Largest C area (blocks) whose submatrix + pivots fit on device.

        Solves ``x + 2 sqrt(x) <= usable`` for the in-core threshold — the
        paper's "memory limit".
        """
        u = self.usable_blocks
        if u <= 0:
            return 0.0
        # x + 2 sqrt(x) = u  =>  sqrt(x) = -1 + sqrt(1 + u)
        root = -1.0 + math.sqrt(1.0 + u)
        return root * root

    def fits_resident(self, area_blocks: float) -> bool:
        """True when a C submatrix of the given area can stay device-resident."""
        check_nonnegative("area_blocks", area_blocks)
        return area_blocks <= self.resident_capacity_blocks()

    def out_of_core_tile_blocks(self, buffered_tiles: int = 2) -> float:
        """Largest per-tile C area for the out-of-core kernels.

        Version 2 needs 1 C tile resident at a time but keeps the *last two*
        rectangles (paper Section V), and version 3 double-buffers C (C0/C1)
        and A (A0/A1); sizing tiles so ``buffered_tiles`` of them plus
        pivot buffers fit covers both.
        """
        if buffered_tiles < 1:
            raise ValueError("buffered_tiles must be >= 1")
        u = self.usable_blocks
        if u <= 0:
            return 0.0
        # buffered_tiles * t + pivot buffers (sized for the tile) <= usable;
        # pivots for a near-square tile of area t take 2 sqrt(t), and A is
        # double-buffered, so allow 4 sqrt(t):
        #   k t + 4 sqrt(t) = u
        k = float(buffered_tiles)
        root = (-2.0 + math.sqrt(4.0 + k * u)) / k
        return max(0.0, root * root)
