"""Work counts of the GPU kernels' out-of-core runs, free of timing noise.

An out-of-core kernel run prices all of its tiles at once: one
:meth:`SimulatedGpu.compute_time` call, one
:meth:`SimulatedGpu.transfer_c_time` call and one pitched bandwidth per
run, whatever the number of tiles.  Version 1 plans one tiling per run;
versions 2 and 3 plan their own and version 1's (their fallback) and
price both in those same calls.  Version 3 uses its plan and transfer
call for both the overlap schedule and the serial fallbacks.
These tests count the calls a per-tile or per-schedule pricing would
make, so a change that brings one back fails here whatever the
machine's speed.
"""

from __future__ import annotations

import pytest

from repro.kernels import gemm_gpu
from repro.kernels.gemm_gpu import gpu_kernel
from repro.platform.device import SimulatedGpu
from repro.platform.pcie import PcieLink

#: Out-of-core on both GPUs of the paper's node, several tiles each.
AREAS = (1800.0, 2600.0, 4100.0, 7300.0)


def _count(monkeypatch, owner, name: str) -> list[int]:
    """Patch ``owner.name`` to count its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.fixture(params=[0, 1], ids=["c870", "gtx680"])
def gpu(request, gpus):
    return gpus[request.param]


@pytest.mark.parametrize("version", [1, 2, 3])
def test_one_plan_per_out_of_core_run(monkeypatch, gpu, version):
    plans = _count(monkeypatch, gemm_gpu, "plan_tiling")
    gpu_kernel(gpu, version).run_time_batch(AREAS, busy_cpu_cores=3)
    tilings = 1 if version == 1 else 2  # v2/v3 also plan v1's fallback
    assert plans[0] == tilings * len(AREAS)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_one_pricing_call_per_run_not_per_tile(monkeypatch, gpu, version):
    kernel = gpu_kernel(gpu, version)
    tiles = [kernel._tiling(a, 2, 2).num_tiles for a in AREAS]
    assert min(tiles) > 1, "the areas must need several tiles"
    transfers = _count(monkeypatch, SimulatedGpu, "transfer_c_time")
    computes = _count(monkeypatch, SimulatedGpu, "compute_time")
    bandwidths = _count(monkeypatch, PcieLink, "pitched_bandwidth_gbs")
    kernel.run_time_batch(AREAS, busy_cpu_cores=3)
    assert transfers[0] == len(AREAS)
    assert computes[0] == len(AREAS)
    assert bandwidths[0] == len(AREAS)


def test_schedule_prices_its_run_once(monkeypatch, gpu):
    kernel = gpu_kernel(gpu, 3)
    plans = _count(monkeypatch, gemm_gpu, "plan_tiling")
    transfers = _count(monkeypatch, SimulatedGpu, "transfer_c_time")
    schedule = kernel.schedule(AREAS[-1], busy_cpu_cores=3)
    assert schedule.makespan > 0.0
    assert (plans[0], transfers[0]) == (1, 1)
