"""Unit tests for the kernel protocol types."""

import math

import pytest

from repro.kernels.gemm_cpu import CpuCoreGemmKernel, CpuGemmKernel
from repro.kernels.gemm_gpu import InCoreGpuGemmKernel, gpu_kernel
from repro.kernels.interface import Kernel, KernelRange, kernel_speed_gflops
from repro.kernels.stencil import CpuStencilKernel, GpuStencilKernel


class TestKernelRange:
    def test_unbounded_by_default(self):
        r = KernelRange()
        assert r.contains(1e15)

    def test_bounded_containment(self):
        r = KernelRange(max_blocks=100)
        assert r.contains(100)
        assert not r.contains(100.1)

    def test_min_bound(self):
        r = KernelRange(min_blocks=10, max_blocks=20)
        assert not r.contains(5)

    def test_require_raises_with_kernel_name(self):
        r = KernelRange(max_blocks=10)
        with pytest.raises(ValueError, match="mykernel"):
            r.require(11, "mykernel")

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            KernelRange(min_blocks=5, max_blocks=5)


class TestProtocol:
    def test_cpu_kernel_satisfies_protocol(self, sockets):
        kernel = CpuGemmKernel(sockets[0], 5)
        assert isinstance(kernel, Kernel)

    def test_speed_helper(self, sockets):
        kernel = CpuGemmKernel(sockets[0], 5)
        speed = kernel_speed_gflops(kernel, 500)
        assert 60 < speed < 110  # a 5-core socket's band

    def test_speed_helper_rejects_zero_area(self, sockets):
        kernel = CpuGemmKernel(sockets[0], 5)
        with pytest.raises(ValueError):
            kernel_speed_gflops(kernel, 0)


_KERNELS = {
    "cpu-gemm": lambda s, g: CpuGemmKernel(s, 5),
    "cpu-core-gemm": lambda s, g: CpuCoreGemmKernel(s, 5),
    "cpu-stencil": lambda s, g: CpuStencilKernel(s, 5, 1024),
    "gpu-stencil-streamed": lambda s, g: GpuStencilKernel(g, 1024),
    "gpu-stencil-resident": lambda s, g: GpuStencilKernel(g, 1024, streamed=False),
    "gpu-gemm-v1": lambda s, g: gpu_kernel(g, 1),
    "gpu-gemm-v2": lambda s, g: gpu_kernel(g, 2),
    "gpu-gemm-v3": lambda s, g: gpu_kernel(g, 3),
    "gpu-gemm-incore": lambda s, g: InCoreGpuGemmKernel(g),
}


class TestNonFiniteAreas:
    """Every kernel's batch rejects NaN and infinite areas by name."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", sorted(_KERNELS))
    def test_batch_rejects_non_finite(self, sockets, gtx680, kind, bad):
        kernel = _KERNELS[kind](sockets[0], gtx680)
        with pytest.raises(ValueError, match="area_blocks must be finite"):
            kernel.run_time_batch([10.0, bad])
