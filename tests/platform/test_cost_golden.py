"""Pinned outputs of every device cost the simulated node prices.

The kernels' ``run_time_batch`` is where the platform's cost primitives
(core rates, GPU tile compute, PCIe copies, pivot uploads) meet the
out-of-core tiling planner and the overlap scheduler.  This golden
records, as ``float.hex``, the batch times of:

* the CPU socket and per-core GEMM kernels at 1, 5 and 6 active cores,
  with and without a busy GPU on the socket;
* GPU kernel versions 1, 2 and 3 and the in-core kernel on both GPUs of
  the paper's node, at areas on both sides of device capacity, with and
  without busy CPU cores;
* the CPU and GPU Jacobi stencils, device-resident and streamed;
* the makespan of version 3's overlap schedule at out-of-core areas.

A refactor of the cost code must leave every value bit-identical; a
deliberate output change must regenerate the golden and say why::

    PYTHONPATH=src python -m tests.platform.test_cost_golden
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.kernels.gemm_cpu import CpuCoreGemmKernel, CpuGemmKernel
from repro.kernels.gemm_gpu import (
    GpuGemmKernelV1,
    GpuGemmKernelV2,
    GpuGemmKernelV3,
    InCoreGpuGemmKernel,
)
from repro.kernels.stencil import CpuStencilKernel, GpuStencilKernel
from repro.platform.device import build_devices
from repro.platform.presets import ig_icl_node

GOLDEN = Path(__file__).parent / "golden_cost.json"

#: Areas in b x b blocks: the ramp, both GPUs' capacities (about 757 and
#: 1207 blocks) and the out-of-core range up to ten times capacity.  Every
#: value is a product of exact literals, so the grid is the same on every
#: machine.
AREAS = (0.0, 0.5, 1.0, 3.7) + tuple(41.3 * k for k in range(1, 40)) + tuple(
    1650.0 + 397.9 * k for k in range(20)
)
#: GPU stencil width (cells); both GPUs hold 40,576 and 63,840 rows.
WIDTH = 4096
ROWS = (0.0, 1.0, 17.5) + tuple(2711.3 * k for k in range(1, 40))
CPU_CORES = (1, 5, 6)
BUSY = (0, 5)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _cpu_cases(socket):
    for cores in CPU_CORES:
        for gpu_active in (False, True):
            tag = f"c{cores}{'+gpu' if gpu_active else ''}"
            for name, cls in (("socket", CpuGemmKernel), ("core", CpuCoreGemmKernel)):
                kernel = cls(socket, cores, gpu_active)
                yield f"cpu-gemm/{name}/{tag}", kernel.run_time_batch(AREAS)
            stencil = CpuStencilKernel(socket, cores, WIDTH, gpu_active)
            yield f"cpu-stencil/{tag}", stencil.run_time_batch(ROWS)


def _gpu_cases(gpu):
    short = gpu.spec.name.split()[-1]
    capacity = gpu.memory.resident_capacity_blocks()
    in_core = tuple(a for a in AREAS if a <= capacity)
    for busy in BUSY:
        tag = f"{short}/busy{busy}"
        for name, cls in (
            ("v1", GpuGemmKernelV1),
            ("v2", GpuGemmKernelV2),
            ("v3", GpuGemmKernelV3),
        ):
            yield f"gpu-gemm/{name}/{tag}", cls(gpu).run_time_batch(AREAS, busy)
        yield f"gpu-gemm/incore/{tag}", InCoreGpuGemmKernel(gpu).run_time_batch(
            in_core, busy
        )
        v3 = GpuGemmKernelV3(gpu)
        yield f"gpu-gemm/v3-makespan/{tag}", [
            v3.schedule(a, busy).makespan for a in AREAS if a > capacity
        ]
        streamed = GpuStencilKernel(gpu, WIDTH)
        resident = GpuStencilKernel(gpu, WIDTH, streamed=False)
        rows_in = tuple(r for r in ROWS if r <= resident.resident_capacity_rows)
        yield f"gpu-stencil/streamed/{tag}", streamed.run_time_batch(ROWS, busy)
        yield f"gpu-stencil/resident/{tag}", resident.run_time_batch(rows_in, busy)


def _record() -> dict:
    sockets, gpus = build_devices(ig_icl_node())
    cases = list(_cpu_cases(sockets[0]))
    for gpu in gpus:
        cases.extend(_gpu_cases(gpu))
    return {name: _hex(values) for name, values in cases}


@pytest.fixture(scope="module")
def record():
    return _record()


def test_every_cost_matches_the_golden(record):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(record) == sorted(golden)
    for name in golden:
        assert record[name] == golden[name], name


def test_the_golden_spans_both_sides_of_capacity():
    """Each GPU sees resident and out-of-core areas, each stencil both
    resident and streamed row counts."""
    _, gpus = build_devices(ig_icl_node())
    for gpu in gpus:
        capacity = gpu.memory.resident_capacity_blocks()
        assert sum(0 < a <= capacity for a in AREAS) >= 10
        assert sum(a > capacity for a in AREAS) >= 10
        rows = GpuStencilKernel(gpu, WIDTH).resident_capacity_rows
        assert sum(0 < r <= rows for r in ROWS) >= 10
        assert sum(r > rows for r in ROWS) >= 10


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(_record(), indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
