"""Work counts of the simulated devices' cost paths, free of timing noise.

A socket builds its cores once, and a core its cache and contention
models once, so pricing a kernel run reads existing objects instead of
building a core per call.  A GPU's memory model converts its block size
to bytes once.  These tests count the constructions and conversions a
per-call rebuild would make, so a change that brings one back fails
here whatever the machine's speed.
"""

from __future__ import annotations

from repro.kernels.gemm_cpu import CpuCoreGemmKernel, CpuGemmKernel
from repro.kernels.gemm_gpu import gpu_kernel
from repro.platform import device, memory
from repro.platform.device import build_devices
from repro.platform.presets import ig_icl_node

AREAS = (0.0, 3.7, 41.3, 900.0, 2600.0)
CALLS = 5


def _count(monkeypatch, owner, name: str) -> list[int]:
    """Patch ``owner.name`` to count its calls."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_socket_builds_its_cores_once(monkeypatch):
    sockets, _ = build_devices(ig_icl_node())
    cores = _count(monkeypatch, device.SimulatedCore, "__init__")
    caches = _count(monkeypatch, device, "CoreCacheModel")
    contentions = _count(monkeypatch, device, "SocketContention")
    for socket in sockets:
        for _ in range(CALLS):
            socket.kernel_time(AREAS, 5)
            CpuGemmKernel(socket, 6, True).run_time_batch(AREAS)
            CpuCoreGemmKernel(socket, 1).run_time_batch(AREAS)
        assert socket.core(0) is socket.core(0)
    assert cores[0] == sum(socket.spec.cores for socket in sockets)
    # only core 0 prices runs, and it builds its models on first use
    assert caches[0] == contentions[0] == len(sockets)


def test_a_gpu_converts_its_block_size_once(monkeypatch):
    _, gpus = build_devices(ig_icl_node())
    conversions = _count(monkeypatch, memory, "blocks_to_bytes")
    for gpu in gpus:
        for _ in range(CALLS):
            for version in (1, 2, 3):
                gpu_kernel(gpu, version).run_time_batch(AREAS, busy_cpu_cores=2)
    assert conversions[0] == len(gpus)
