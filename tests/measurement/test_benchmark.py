"""Unit tests for the hybrid benchmark facade (Section III experiments)."""

import numpy as np
import pytest

from repro.measurement.benchmark import HybridBenchmark
from repro.platform.faults import FaultPlan


class _NanKernel:
    """A kernel whose model returns NaN for every size."""

    name = "nan-kernel"
    block_size = 640

    def run_time(self, area_blocks, busy_cpu_cores=0):
        return float("nan")

    def run_time_batch(self, sizes, busy_cpu_cores=0):
        return np.full(len(sizes), np.nan)


class TestTimerIntegration:
    def test_deterministic_for_same_seed(self, node):
        a = HybridBenchmark(node, seed=5, noise_sigma=0.05)
        b = HybridBenchmark(node, seed=5, noise_sigma=0.05)
        ka = a.socket_kernel(0, 5)
        kb = b.socket_kernel(0, 5)
        assert a.measure_time(ka, 300).mean == b.measure_time(kb, 300).mean

    def test_seed_changes_measurements(self, node):
        a = HybridBenchmark(node, seed=5, noise_sigma=0.05)
        b = HybridBenchmark(node, seed=6, noise_sigma=0.05)
        ma = a.measure_time(a.socket_kernel(0, 5), 300)
        mb = b.measure_time(b.socket_kernel(0, 5), 300)
        assert ma.mean != mb.mean

    def test_noise_free_matches_ideal(self, quiet_bench):
        kernel = quiet_bench.socket_kernel(0, 5)
        m = quiet_bench.measure_time(kernel, 300)
        assert m.mean == pytest.approx(kernel.run_time(300))
        assert m.std == 0.0


class TestNonFiniteKernelTimes:
    """A NaN ideal time raises instead of posing as an injected fault."""

    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    @pytest.mark.parametrize("fault_spec", [None, "fail:*:p=0.1,code=13"])
    def test_nan_kernel_raises_in_both_lanes(self, node, sigma, fault_spec):
        faults = None
        if fault_spec is not None:
            faults = FaultPlan.from_spec(fault_spec, seed=3)
        bench = HybridBenchmark(node, seed=3, noise_sigma=sigma, faults=faults)
        with pytest.raises(ValueError, match="seconds"):
            bench.measure_times(_NanKernel(), [10.0, 50.0])
        with pytest.raises(ValueError, match="seconds"):
            bench.measure_time(_NanKernel(), 10.0)


class TestMeasurements:
    def test_measure_speed_consistency(self, bench):
        m = bench.measure_socket_speed(2, 6, 500)
        assert 90 < m.speed_gflops < 120
        assert m.timing.repetitions >= 5

    def test_gpu_speed_versions_ordered(self, quiet_bench):
        x = 900.0
        v1 = quiet_bench.measure_gpu_speed(1, x, version=1).speed_gflops
        v2 = quiet_bench.measure_gpu_speed(1, x, version=2).speed_gflops
        assert v2 > v1

    def test_shared_socket_returns_both_sides(self, quiet_bench):
        cpu_m, gpu_m = quiet_bench.measure_shared_socket(1, 1100.0, 1 / 11)
        assert cpu_m.area_blocks == pytest.approx(100.0)
        assert gpu_m.area_blocks == pytest.approx(1000.0)
        assert cpu_m.speed_gflops > 0 and gpu_m.speed_gflops > 0

    def test_shared_socket_shows_gpu_drop(self, quiet_bench):
        _, gpu_shared = quiet_bench.measure_shared_socket(1, 1100.0, 1 / 11)
        gpu_solo = quiet_bench.measure_gpu_speed(1, 1000.0)
        drop = 1 - gpu_shared.speed_gflops / gpu_solo.speed_gflops
        assert 0.05 < drop < 0.2

    def test_shared_socket_rejects_bad_fraction(self, bench):
        with pytest.raises(ValueError):
            bench.measure_shared_socket(1, 100.0, 1.0)

    def test_index_validation(self, bench):
        with pytest.raises(ValueError):
            bench.socket_kernel(9, 6)
        with pytest.raises(ValueError):
            bench.gpu_kernel(5)

    def test_measure_time_rejects_zero_area(self, bench):
        with pytest.raises(ValueError):
            bench.measure_time(bench.socket_kernel(0, 5), 0.0)
