"""Unit tests for the PCIe link model."""

import numpy as np
import pytest

from repro.platform.memory import GpuMemoryModel
from repro.platform.pcie import PcieLink
from repro.platform.presets import geforce_gtx680


@pytest.fixture()
def link():
    gpu = geforce_gtx680()
    staging = GpuMemoryModel(gpu, 640).resident_capacity_blocks()
    return PcieLink(gpu, staging_blocks=staging)


class TestContiguous:
    def test_zero_bytes_free(self, link):
        assert link.contiguous_time(0) == 0.0

    def test_latency_plus_bandwidth(self, link):
        t = link.contiguous_time(6.4e9)
        assert t == pytest.approx(1.0 + link.gpu.pcie_latency_s)

    def test_monotone_in_bytes(self, link):
        assert link.contiguous_time(2e6) > link.contiguous_time(1e6)

    def test_takes_arrays(self, link):
        sizes = np.array([0.0, 1e6, 6.4e9])
        times = link.contiguous_time(sizes)
        assert times.tolist() == [float(link.contiguous_time(n)) for n in sizes]
        assert times[0] == 0.0


class TestPitched:
    def test_pinned_speed_within_staging(self, link):
        bw = link.pitched_bandwidth_gbs(link.staging_blocks * 0.5)
        assert bw == link.gpu.pcie_pitched_pinned_gbs

    def test_pageable_cliff_past_staging(self, link):
        """The bandwidth collapse that creates Fig. 3's performance drop."""
        inside = link.pitched_bandwidth_gbs(link.staging_blocks)
        outside = link.pitched_bandwidth_gbs(link.staging_blocks * 1.01)
        assert outside < inside * 0.5

    def test_pageable_decays_with_footprint(self, link):
        bw1 = link.pitched_bandwidth_gbs(link.staging_blocks * 1.5)
        bw2 = link.pitched_bandwidth_gbs(link.staging_blocks * 3.0)
        assert bw2 < bw1

    def test_pitched_time_uses_footprint_bandwidth(self, link):
        nbytes = 1e8
        t_in = link.pitched_time(nbytes, link.staging_blocks * 0.5)
        t_out = link.pitched_time(nbytes, link.staging_blocks * 2.0)
        assert t_out > t_in

    def test_zero_bytes_free(self, link):
        assert link.pitched_time(0, 100) == 0.0

    def test_bandwidth_takes_arrays(self, link):
        footprints = link.staging_blocks * np.array([0.5, 1.0, 1.01, 3.0])
        bws = link.pitched_bandwidth_gbs(footprints)
        assert bws.tolist() == [float(link.pitched_bandwidth_gbs(f)) for f in footprints]

    def test_one_run_shares_one_bandwidth(self, link):
        """A run's rectangles are priced at the run's footprint bandwidth."""
        footprint = link.staging_blocks * 2.0
        sizes = np.array([0.0, 1e7, 3e8])
        bw = float(link.pitched_bandwidth_gbs(footprint))
        times = link.pitched_time(sizes, footprint)
        assert times[0] == 0.0
        assert times[1:].tolist() == [
            link.gpu.pcie_latency_s + n / (bw * 1e9) for n in sizes[1:]
        ]


class TestConcurrentCopy:
    def test_idle_kernel_full_speed(self, link):
        assert link.concurrent_copy_factor(False) == 1.0

    def test_active_kernel_slows_copies(self, link):
        assert link.concurrent_copy_factor(True) == link.gpu.concurrent_copy_slowdown
        assert link.concurrent_copy_factor(True) <= 1.0

    def test_factor_takes_a_mask(self, link):
        factors = link.concurrent_copy_factor(np.array([False, True]))
        assert factors.tolist() == [1.0, link.gpu.concurrent_copy_slowdown]
