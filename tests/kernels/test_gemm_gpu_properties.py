"""Property-based tests: GPU kernel invariants over random device specs."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels.gemm_gpu import gpu_kernel
from repro.platform.contention import CpuGpuInterference
from repro.platform.device import SimulatedGpu
from repro.platform.presets import geforce_gtx680


@st.composite
def gpu_specs(draw):
    """Random-but-plausible GPU specs derived from the GTX680 baseline.

    Plausibility constraints encode what real accelerators look like:
    pageable copies never beat pinned ones, and the kernel saturates at
    sizes far below device capacity (the GTX680's half-point is 60 blocks
    against a ~1150-block capacity).  Degenerate devices that only
    saturate near their capacity genuinely reverse some version
    relationships through tile-granularity effects, so they are out of
    scope here.
    """
    pinned = draw(st.floats(min_value=1.0, max_value=16.0))
    pageable_fraction = draw(st.floats(min_value=0.1, max_value=1.0))
    memory_mb = draw(st.floats(min_value=512.0, max_value=8192.0))
    reserved_mb = draw(st.floats(min_value=16.0, max_value=128.0))
    block_mb = 640 * 640 * 4 / (1024 * 1024)
    capacity_blocks = (memory_mb - reserved_mb) / block_mb
    rate_half = draw(
        st.floats(min_value=5.0, max_value=max(6.0, capacity_blocks / 15.0))
    )
    return dataclasses.replace(
        geforce_gtx680(),
        memory_mb=memory_mb,
        reserved_mb=reserved_mb,
        peak_gflops=draw(st.floats(min_value=50.0, max_value=3000.0)),
        rate_half_blocks=rate_half,
        pcie_contig_gbs=draw(st.floats(min_value=1.0, max_value=16.0)),
        pcie_pitched_pinned_gbs=pinned,
        pcie_pageable_gbs=pinned * pageable_fraction,
        dma_engines=draw(st.sampled_from([1, 2])),
        concurrent_copy_slowdown=draw(st.floats(min_value=0.5, max_value=1.0)),
    )


#: A spec the strategy draws on which v2's two-resident tiling loses to
#: v1's at area 406 (capacity ~284 blocks).
_SLOW_SMALL_GPU = dataclasses.replace(
    geforce_gtx680(),
    memory_mb=512.0,
    reserved_mb=16.0,
    peak_gflops=50.0,
    rate_half_blocks=20.0,
    pcie_contig_gbs=1.0,
    pcie_pitched_pinned_gbs=5.0,
    pcie_pageable_gbs=5.0,
    dma_engines=1,
    concurrent_copy_slowdown=1.0,
)


def make_gpu(spec):
    return SimulatedGpu(
        name="prop",
        spec=spec,
        interference=CpuGpuInterference(),
        socket_cores=6,
        block_size=640,
    )


class TestGpuKernelProperties:
    @given(spec=gpu_specs(), area=st.floats(min_value=1.0, max_value=6000.0))
    @example(spec=_SLOW_SMALL_GPU, area=406.0)
    @settings(max_examples=60, deadline=None)
    def test_v3_never_slower_than_v2(self, spec, area):
        gpu = make_gpu(spec)
        v2 = gpu_kernel(gpu, 2)
        v3 = gpu_kernel(gpu, 3)
        assert v3.run_time(area) <= v2.run_time(area) * (1 + 1e-9)

    @given(spec=gpu_specs(), area=st.floats(min_value=1.0, max_value=6000.0))
    @example(spec=_SLOW_SMALL_GPU, area=406.0)
    @settings(max_examples=60, deadline=None)
    def test_v1_never_significantly_faster_than_v2(self, spec, area):
        """v2 dominates v1 up to rounding.

        v2's two resident tiles halve its out-of-core tiles; on a slow
        device whose rate still climbs at that size (the pinned example:
        v1's two strips beat v2's four by 5.3%) v2 falls back to v1's
        tiling instead of losing to it.
        """
        gpu = make_gpu(spec)
        assert gpu_kernel(gpu, 1).run_time(area) >= gpu_kernel(gpu, 2).run_time(
            area
        ) * (1 - 1e-9)

    @given(spec=gpu_specs())
    @settings(max_examples=40, deadline=None)
    def test_time_monotone_in_area(self, spec):
        gpu = make_gpu(spec)
        cap = gpu.memory.resident_capacity_blocks()
        areas = [cap * f for f in (0.2, 0.6, 0.99, 1.3, 2.0, 3.5)]
        for version in (1, 2, 3):
            k = gpu_kernel(gpu, version)
            times = [k.run_time(a) for a in areas]
            assert all(
                t1 < t2 * (1 + 1e-9) for t1, t2 in zip(times, times[1:])
            )

    @given(spec=gpu_specs())
    @settings(max_examples=30, deadline=None)
    def test_v3_schedule_always_valid(self, spec):
        gpu = make_gpu(spec)
        cap = gpu.memory.resident_capacity_blocks()
        v3 = gpu_kernel(gpu, 3)
        sched = v3.schedule(cap * 2.3)
        sched.timeline.validate()
        assert sched.makespan <= sched.serial_time + 1e-9

    @given(
        spec=gpu_specs(),
        area=st.floats(min_value=10.0, max_value=5000.0),
        busy=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_contention_never_speeds_up(self, spec, area, busy):
        gpu = make_gpu(spec)
        k = gpu_kernel(gpu, 3)
        assert k.run_time(area, busy) >= k.run_time(area, 0) * (1 - 1e-9)
