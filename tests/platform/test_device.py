"""Unit tests for the simulated devices."""

import numpy as np
import pytest

from repro.kernels.gemm_cpu import CpuGemmKernel
from repro.kernels.interface import kernel_speed_gflops
from repro.platform.device import build_devices
from repro.util.units import gemm_kernel_flops


class TestBuildDevices:
    def test_counts(self, node, devices):
        sockets, gpus = devices
        assert len(sockets) == node.num_sockets
        assert len(gpus) == len(node.gpus)

    def test_gpu_order_matches_attachments(self, gpus):
        assert "Tesla C870" in gpus[0].name
        assert "GTX680" in gpus[1].name


class TestSimulatedCore:
    def test_kernel_time_positive_and_linear_scaling(self, sockets):
        core = sockets[0].core(0)
        t1 = core.kernel_time(10.0)
        t2 = core.kernel_time(20.0)
        assert 0 < t1 < t2

    def test_zero_area_zero_time(self, sockets):
        assert sockets[0].core(0).kernel_time(0.0) == 0.0

    def test_contention_slows_core(self, sockets):
        core = sockets[0].core(0)
        assert core.kernel_time(50, active_cores=6) > core.kernel_time(
            50, active_cores=1
        )

    def test_gpu_activity_slows_core_slightly(self, sockets):
        core = sockets[0].core(0)
        slow = core.kernel_time(50, 5, gpu_active=True)
        fast = core.kernel_time(50, 5, gpu_active=False)
        assert fast < slow < fast * 1.05

    def test_kernel_time_takes_arrays(self, sockets):
        core = sockets[0].core(0)
        areas = np.array([0.0, 10.0, 20.0, 450.0])
        times = core.kernel_time(areas, 5, gpu_active=True)
        assert times.shape == areas.shape
        assert times.tolist() == [
            float(core.kernel_time(a, 5, gpu_active=True)) for a in areas
        ]

    def test_rate_is_solo_rate_times_sharing_factors(self, sockets):
        core = sockets[0].core(0)
        solo = core.cache.core_rate_gflops(50.0)
        assert core.rate_gflops(50.0, 1) == pytest.approx(solo)
        assert core.rate_gflops(50.0, 6) < core.rate_gflops(50.0, 1)

    def test_negative_area_rejected(self, sockets):
        with pytest.raises(ValueError, match="area_blocks"):
            sockets[0].core(0).kernel_time(np.array([1.0, -2.0]))

    def test_invalid_core_index(self, sockets):
        with pytest.raises(ValueError):
            sockets[0].core(6)


class TestSimulatedSocket:
    def test_speed_increases_with_cores(self, sockets):
        s = sockets[0]
        speeds = [
            kernel_speed_gflops(CpuGemmKernel(s, c), 600) for c in range(1, 7)
        ]
        assert all(a < b for a, b in zip(speeds, speeds[1:]))

    def test_speed_is_flops_over_time(self, sockets):
        s = sockets[0]
        x = 300.0
        t = s.kernel_time(x, 6)
        assert kernel_speed_gflops(CpuGemmKernel(s, 6), x) == pytest.approx(
            gemm_kernel_flops(x, s.block_size) / t / 1e9
        )

    def test_default_uses_all_cores(self, sockets):
        s = sockets[0]
        assert s.kernel_time(120.0) == s.kernel_time(120.0, s.spec.cores)

    def test_rejects_too_many_cores(self, sockets):
        with pytest.raises(ValueError):
            sockets[0].kernel_time(10.0, active_cores=7)

    def test_kernel_time_is_the_cores_time_on_even_shares(self, sockets):
        s = sockets[0]
        areas = np.array([0.0, 6.0, 120.0, 900.0])
        assert np.array_equal(
            s.kernel_time(areas, 6, True), s.core(0).kernel_time(areas / 6, 6, True)
        )


class TestSimulatedGpu:
    def test_kernel_rate_saturates(self, gtx680):
        r_small = gtx680.kernel_rate_gflops(10)
        r_big = gtx680.kernel_rate_gflops(1000)
        assert r_small < r_big < gtx680.spec.peak_gflops

    def test_misalignment_penalty(self, gtx680):
        aligned = gtx680.kernel_rate_gflops(500, aligned=True)
        misaligned = gtx680.kernel_rate_gflops(500, aligned=False)
        assert misaligned == pytest.approx(
            aligned / gtx680.spec.misalignment_penalty
        )

    def test_zero_area_rate_is_vacuous_peak(self, gtx680):
        assert gtx680.kernel_rate_gflops(0.0) == gtx680.spec.peak_gflops

    def test_aligned_mask_per_tile(self, gtx680):
        areas = np.array([500.0, 500.0, 120.0])
        mask = np.array([True, False, True])
        rates = gtx680.kernel_rate_gflops(areas, aligned=mask)
        assert rates.tolist() == [
            float(gtx680.kernel_rate_gflops(a, aligned=m)) for a, m in zip(areas, mask)
        ]
        assert rates[1] < rates[0]

    def test_compute_time_zero_area(self, gtx680):
        assert gtx680.compute_time(0.0) == 0.0

    def test_compute_time_takes_arrays(self, gtx680):
        areas = np.array([0.0, 3.5, 500.0, 1100.0])
        mask = np.array([True, True, False, True])
        times = gtx680.compute_time(areas, mask, busy_cpu_cores=5)
        assert times.tolist() == [
            float(gtx680.compute_time(a, m, busy_cpu_cores=5))
            for a, m in zip(areas, mask)
        ]

    def test_contention_slows_gpu(self, gtx680):
        base = gtx680.compute_time(500, busy_cpu_cores=0)
        shared = gtx680.compute_time(500, busy_cpu_cores=5)
        assert shared > base
        # within the paper's 7-15% band
        assert 1.05 < shared / base < 1.20

    def test_pivot_upload_scales_with_sqrt_area(self, gtx680):
        t400 = gtx680.upload_pivots_time(400)
        t1600 = gtx680.upload_pivots_time(1600)
        # pivot blocks double when area quadruples
        assert t1600 == pytest.approx(2 * t400, rel=0.01)

    def test_transfer_c_footprint_matters(self, gtx680):
        cap = gtx680.memory.resident_capacity_blocks()
        fast = gtx680.transfer_c_time(100, footprint_blocks=cap * 0.5)
        slow = gtx680.transfer_c_time(100, footprint_blocks=cap * 2.0)
        assert slow > fast

    def test_concurrent_copy_slower(self, gtx680):
        idle = gtx680.transfer_c_time(100, 2000, kernel_active=False)
        busy = gtx680.transfer_c_time(100, 2000, kernel_active=True)
        assert busy >= idle

    def test_transfer_zero_area_free(self, gtx680):
        assert gtx680.transfer_c_time(0.0, 2000) == 0.0

    def test_transfer_prices_idle_and_active_rows_at_once(self, gtx680):
        tiles = np.array([120.0, 300.0, 0.0])
        both = gtx680.transfer_c_time(
            tiles, 2000, 3, kernel_active=np.array([[False], [True]])
        )
        assert both.shape == (2, 3)
        for row, active in zip(both, (False, True)):
            assert row.tolist() == [
                float(gtx680.transfer_c_time(t, 2000, 3, kernel_active=active))
                for t in tiles
            ]

    def test_pivot_upload_takes_arrays(self, gtx680):
        areas = np.array([0.0, 400.0, 1600.0])
        times = gtx680.upload_pivots_time(areas, 2)
        assert times[0] == 0.0
        assert times.tolist() == [
            float(gtx680.upload_pivots_time(a, 2)) for a in areas
        ]
