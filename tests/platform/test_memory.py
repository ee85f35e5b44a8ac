"""Unit tests for memory-hierarchy models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform.memory import CoreCacheModel, GpuMemoryModel
from repro.platform.presets import geforce_gtx680, opteron_8439se, tesla_c870


class TestCoreCacheModel:
    def setup_method(self):
        self.model = CoreCacheModel(opteron_8439se())

    def test_ramp_up_with_size(self):
        assert self.model.efficiency(1) < self.model.efficiency(50)

    def test_plateau_near_one(self):
        assert self.model.efficiency(100) == pytest.approx(1.0, abs=0.02)

    def test_droop_past_pressure_threshold(self):
        assert self.model.efficiency(400) < self.model.efficiency(100)

    def test_efficiency_bounded(self):
        for a in (0, 1, 10, 100, 1000, 10000):
            assert 0.0 < self.model.efficiency(a) <= 1.0

    def test_core_rate_scales_with_peak(self):
        assert self.model.core_rate_gflops(100) == pytest.approx(
            opteron_8439se().peak_gflops * self.model.efficiency(100)
        )

    @given(st.floats(min_value=0, max_value=5000))
    @settings(max_examples=50)
    def test_efficiency_always_positive(self, area):
        assert self.model.efficiency(area) > 0.0

    def test_takes_arrays(self):
        areas = np.array([0.0, 1.0, 50.0, 400.0, 10000.0])
        effs = self.model.efficiency(areas)
        assert effs.tolist() == [float(self.model.efficiency(a)) for a in areas]
        assert np.array_equal(
            self.model.core_rate_gflops(areas), opteron_8439se().peak_gflops * effs
        )


class TestGpuMemoryModel:
    def test_block_bytes(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        assert m.block_bytes == 640 * 640 * 4

    def test_gtx680_capacity_near_papers_limit(self):
        """Fig. 3's memory-limit line sits around 1200 blocks."""
        m = GpuMemoryModel(geforce_gtx680(), 640)
        assert 1000 <= m.resident_capacity_blocks() <= 1300

    def test_c870_capacity_between_table3_allocations(self):
        """At 60x60 the C870's 657-block share is resident, at 70x70 the
        806-block share is not (Table III discussion)."""
        m = GpuMemoryModel(tesla_c870(), 640)
        cap = m.resident_capacity_blocks()
        assert 657 <= cap <= 806

    def test_fits_resident_boundary(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        cap = m.resident_capacity_blocks()
        assert m.fits_resident(cap * 0.999)
        assert not m.fits_resident(cap * 1.001)

    def test_capacity_plus_pivots_fits_usable(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        cap = m.resident_capacity_blocks()
        assert cap + m.pivot_blocks(cap) == pytest.approx(m.usable_blocks)

    def test_out_of_core_tiles_smaller_than_capacity(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        tile = m.out_of_core_tile_blocks(buffered_tiles=2)
        assert 0 < tile < m.resident_capacity_blocks()

    def test_more_buffers_mean_smaller_tiles(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        assert m.out_of_core_tile_blocks(3) < m.out_of_core_tile_blocks(2)

    def test_buffered_tiles_fit_usable_memory(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        for k in (1, 2, 3, 4):
            t = m.out_of_core_tile_blocks(k)
            assert k * t + 4 * math.sqrt(t) <= m.usable_blocks * (1 + 1e-9)

    def test_pivot_blocks_scale_with_sqrt(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        assert m.pivot_blocks(400) == pytest.approx(2 * 20.0)
        assert m.pivot_blocks(np.array([0.0, 100.0, 400.0])).tolist() == [
            0.0,
            20.0,
            40.0,
        ]

    def test_rejects_bad_buffer_count(self):
        m = GpuMemoryModel(geforce_gtx680(), 640)
        with pytest.raises(ValueError):
            m.out_of_core_tile_blocks(0)
