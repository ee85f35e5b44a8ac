"""Unit tests for workload unit conversions."""

import math

import numpy as np
import pytest

from repro.util.units import (
    BYTES_PER_SP_ELEMENT,
    DEFAULT_BLOCKING_FACTOR,
    blocks_to_bytes,
    blocks_to_elements,
    gemm_kernel_flops,
    gflops,
    matmul_total_flops,
    mib,
    seconds_for,
)


class TestBlocks:
    def test_one_block_elements(self):
        assert blocks_to_elements(1, 640) == 640 * 640

    def test_bytes_single_precision(self):
        assert blocks_to_bytes(1, 640) == 640 * 640 * BYTES_PER_SP_ELEMENT

    def test_default_blocking_factor_is_papers(self):
        assert DEFAULT_BLOCKING_FACTOR == 640

    def test_fractional_area_allowed(self):
        assert blocks_to_elements(0.5, 10) == 50.0

    def test_rejects_negative_area(self):
        with pytest.raises(ValueError):
            blocks_to_elements(-1, 640)

    def test_arrays_convert_element_wise(self):
        areas = np.array([0.0, 0.5, 7.0, 1234.5])
        assert blocks_to_bytes(areas, 640).tolist() == [
            blocks_to_bytes(float(a), 640) for a in areas
        ]
        assert gemm_kernel_flops(areas, 640).tolist() == [
            gemm_kernel_flops(float(a), 640) for a in areas
        ]

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_rejects_bad_areas_in_arrays(self, bad):
        for convert in (blocks_to_elements, blocks_to_bytes, gemm_kernel_flops):
            with pytest.raises(ValueError, match="area_blocks"):
                convert(np.array([2.0, bad]), 640)
            with pytest.raises(ValueError, match="area_blocks"):
                convert(bad, 640)


class TestFlops:
    def test_kernel_flops_linear_in_area(self):
        one = gemm_kernel_flops(1, 640)
        assert gemm_kernel_flops(7, 640) == pytest.approx(7 * one)

    def test_kernel_flops_value(self):
        # 2 * x * b^3
        assert gemm_kernel_flops(1, 640) == pytest.approx(2 * 640**3)

    def test_total_flops_is_iterations_times_kernel(self):
        n, b = 12, 64
        per_iteration = gemm_kernel_flops(n * n, b)
        assert matmul_total_flops(n, b) == pytest.approx(n * per_iteration)

    def test_total_flops_cube_law(self):
        assert matmul_total_flops(40, 640) == pytest.approx(2 * (40 * 640) ** 3)


class TestSpeed:
    def test_gflops(self):
        assert gflops(2e9, 2.0) == pytest.approx(1.0)

    def test_seconds_for_inverts_gflops(self):
        flops = 3.3e12
        t = seconds_for(flops, 150.0)
        assert gflops(flops, t) == pytest.approx(150.0)

    def test_gflops_rejects_zero_time(self):
        with pytest.raises(ValueError):
            gflops(1.0, 0.0)

    def test_mib(self):
        assert mib(1024 * 1024) == pytest.approx(1.0)
