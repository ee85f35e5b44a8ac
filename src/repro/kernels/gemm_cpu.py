"""The CPU GEMM kernel (the paper's ACML SGEMM stand-in).

Following Section III, CPU performance is measured for a *group* of cores
executing the kernel simultaneously: a :class:`CpuGemmKernel` is bound to a
socket and a core count ``c``; its problem area ``x`` is split evenly so
each core updates an area of ``x / c`` blocks, and the group finishes when
the (synchronised, identically loaded) cores finish.

The module also provides :func:`numpy_gemm_update`, a *real* numerical
rank-``b`` update used by the application's verification path — the
simulator predicts time, numpy produces the actual numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.interface import KernelRange, as_area_array
from repro.platform.device import SimulatedSocket
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class CpuGemmKernel:
    """ACML-like GEMM kernel on ``active_cores`` cores of one socket.

    ``gpu_active`` marks whether a GPU host process is busy on the same
    socket (the paper's Fig. 5a contention scenario); it costs the cores a
    small slowdown configured on the node spec.
    """

    socket: SimulatedSocket
    active_cores: int
    gpu_active: bool = False

    def __post_init__(self) -> None:
        check_positive_int("active_cores", self.active_cores)
        if self.active_cores > self.socket.spec.cores:
            raise ValueError(
                f"active_cores={self.active_cores} exceeds the "
                f"{self.socket.spec.cores} cores of {self.socket.name}"
            )

    @property
    def name(self) -> str:
        suffix = "+gpu" if self.gpu_active else ""
        return f"cpu-gemm[{self.socket.name}:c{self.active_cores}{suffix}]"

    @property
    def block_size(self) -> int:
        return self.socket.block_size

    @property
    def valid_range(self) -> KernelRange:
        return KernelRange()  # host memory is ample for all studied sizes

    def run_time(self, area_blocks: float, busy_cpu_cores: int = 0) -> float:
        """Seconds for one kernel run over the socket's area ``x`` blocks.

        ``busy_cpu_cores`` is accepted for protocol compatibility but
        ignored — CPU-side contention is captured by ``active_cores`` and
        ``gpu_active``.
        """
        if area_blocks < 0:
            raise ValueError(f"area_blocks must be >= 0, got {area_blocks}")
        return float(self.run_time_batch((area_blocks,), busy_cpu_cores)[0])

    def run_time_batch(self, area_blocks, busy_cpu_cores: int = 0) -> np.ndarray:
        """Ideal seconds at each area of a batch (the sweep fast path)."""
        del busy_cpu_cores
        areas = as_area_array(area_blocks)
        return self.socket.kernel_time(
            areas, self.active_cores, self.gpu_active
        )


@dataclass(frozen=True)
class CpuCoreGemmKernel:
    """The per-process view: ONE core's kernel time for its own area.

    The socket-level model ``s_c(x)`` and this per-core kernel are two
    views of the same measurement: a socket run of area ``x`` on ``c``
    cores is ``c`` simultaneous per-core runs of ``x / c`` each, so
    ``core_time(a) == socket_time(c * a)``.  The application simulator
    charges each CPU rank this per-core time for its rectangle.
    """

    socket: SimulatedSocket
    active_cores: int
    gpu_active: bool = False

    def __post_init__(self) -> None:
        check_positive_int("active_cores", self.active_cores)
        if self.active_cores > self.socket.spec.cores:
            raise ValueError(
                f"active_cores={self.active_cores} exceeds the "
                f"{self.socket.spec.cores} cores of {self.socket.name}"
            )

    @property
    def name(self) -> str:
        suffix = "+gpu" if self.gpu_active else ""
        return f"cpu-core-gemm[{self.socket.name}:c{self.active_cores}{suffix}]"

    @property
    def block_size(self) -> int:
        return self.socket.block_size

    @property
    def valid_range(self) -> KernelRange:
        return KernelRange()

    def run_time(self, area_blocks: float, busy_cpu_cores: int = 0) -> float:
        """Seconds for one kernel run of THIS core's area ``x`` blocks."""
        if area_blocks < 0:
            raise ValueError(f"area_blocks must be >= 0, got {area_blocks}")
        return float(self.run_time_batch((area_blocks,), busy_cpu_cores)[0])

    def run_time_batch(self, area_blocks, busy_cpu_cores: int = 0) -> np.ndarray:
        """Ideal seconds at each per-core area of a batch."""
        del busy_cpu_cores
        areas = as_area_array(area_blocks)
        return self.socket.core(0).kernel_time(
            areas, self.active_cores, self.gpu_active
        )


def numpy_gemm_update(
    c_block: np.ndarray, a_panel: np.ndarray, b_panel: np.ndarray
) -> None:
    """In-place rank-k update ``C += A x B`` (the kernel's real arithmetic).

    Shapes: ``C (m, n)``, ``A (m, k)``, ``B (k, n)``.  Used by the numeric
    verification path of the application (small block sizes), while the
    simulated platform provides timings at the paper's b = 640.
    """
    if c_block.ndim != 2 or a_panel.ndim != 2 or b_panel.ndim != 2:
        raise ValueError("numpy_gemm_update expects 2-D arrays")
    m, n = c_block.shape
    if a_panel.shape[0] != m or b_panel.shape[1] != n:
        raise ValueError(
            f"shape mismatch: C {c_block.shape}, A {a_panel.shape}, "
            f"B {b_panel.shape}"
        )
    if a_panel.shape[1] != b_panel.shape[0]:
        raise ValueError(
            f"inner dimensions differ: A {a_panel.shape} vs B {b_panel.shape}"
        )
    # BLAS-backed; accumulate in place without allocating a temporary for C.
    c_block += a_panel @ b_panel
