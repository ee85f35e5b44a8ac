"""The kernel abstraction shared by CPU and GPU implementations.

A *kernel* (paper Section II) is a short code whose speed equals the full
application's speed at the same problem size: here, one rank-``b`` update of
the processor's ``C`` submatrix.  The measurement layer times kernels; the
FPM layer turns (size, time) samples into speed functions; the application
simulator charges one kernel run per iteration of the main loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from repro.util.units import gemm_kernel_flops
from repro.util.validation import check_nonnegative, check_nonnegative_values


def as_area_array(area_blocks: "Sequence[float] | np.ndarray") -> np.ndarray:
    """Normalise a batch of problem areas to a validated 1-D float64 array.

    Shared by every kernel's ``run_time_batch``: rejects negative areas with
    the scalar methods' semantics, so batched and scalar validation agree,
    and rejects NaN and infinite areas, for which no kernel has a time.
    """
    areas = np.asarray(area_blocks, dtype=np.float64)
    if areas.ndim != 1:
        raise ValueError(f"area_blocks batch must be 1-D, got shape {areas.shape}")
    return check_nonnegative_values("area_blocks", areas)


@dataclass(frozen=True)
class KernelRange:
    """Valid problem-size range of a kernel, in b x b blocks.

    Plain in-core GPU kernels are only defined while the data fits device
    memory (``max_blocks`` finite); out-of-core kernels extend the range
    "to infinity" (paper Section I).
    """

    min_blocks: float = 0.0
    max_blocks: float = math.inf

    def __post_init__(self) -> None:
        check_nonnegative("min_blocks", self.min_blocks)
        if not self.max_blocks > self.min_blocks:
            raise ValueError(
                f"max_blocks ({self.max_blocks}) must exceed min_blocks "
                f"({self.min_blocks})"
            )

    def contains(self, area_blocks: float) -> bool:
        """True when the kernel is defined for this problem area."""
        return self.min_blocks <= area_blocks <= self.max_blocks

    def require(self, area_blocks: float, kernel_name: str) -> None:
        """Raise ValueError when the area is outside the kernel's range."""
        if not self.contains(area_blocks):
            raise ValueError(
                f"problem area {area_blocks} blocks is outside the valid "
                f"range [{self.min_blocks}, {self.max_blocks}] of kernel "
                f"{kernel_name!r}"
            )


@runtime_checkable
class Kernel(Protocol):
    """One timeable kernel bound to a processing element."""

    @property
    def name(self) -> str:
        """Stable identifier (used for RNG-noise keying and reports)."""
        ...

    @property
    def block_size(self) -> int:
        """Blocking factor b of the kernel's workload units."""
        ...

    @property
    def valid_range(self) -> KernelRange:
        """Problem sizes for which the kernel is defined."""
        ...

    def run_time(self, area_blocks: float, busy_cpu_cores: int = 0) -> float:
        """Ideal seconds of ONE kernel run on a problem area of ``x`` blocks.

        ``busy_cpu_cores`` conveys the contention state: how many CPU
        kernels run concurrently on the same socket (GPU kernels slow down
        under it; for CPU kernels the argument signals a busy GPU when
        negative conventions are avoided by the dedicated parameter of
        :class:`repro.kernels.gemm_cpu.CpuGemmKernel`).
        """
        ...

    def run_time_batch(
        self, area_blocks: "Sequence[float] | np.ndarray", busy_cpu_cores: int = 0
    ) -> np.ndarray:
        """Ideal seconds of one kernel run at EACH area of a batch.

        The vectorised twin of :meth:`run_time` — element ``i`` equals
        ``run_time(area_blocks[i], busy_cpu_cores)`` bitwise.  Measurement
        sweeps call this once per grid instead of once per point.
        """
        ...


def kernel_speed_gflops(kernel: Kernel, area_blocks: float, busy_cpu_cores: int = 0) -> float:
    """Speed (GFlops) of a kernel at a problem area, from its ideal time."""
    if area_blocks <= 0:
        raise ValueError(f"area_blocks must be > 0, got {area_blocks}")
    t = kernel.run_time(area_blocks, busy_cpu_cores)
    return gemm_kernel_flops(area_blocks, kernel.block_size) / t / 1e9
