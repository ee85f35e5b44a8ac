"""Processes bound to devices: the unit the application simulator schedules.

Each application process is one rank pinned to one core; a *dedicated*
process drives a GPU and charges the GPU kernel's combined time, every
other process charges the CPU kernel time of its core group.  Contention
state is derived from the binding plan: CPU processes know whether a GPU
shares their socket, GPU processes know how many CPU kernels run beside
them.  The CPU ranks of one socket share one kernel, so
:func:`iteration_times` prices a whole plan with one batched kernel call
per socket and per GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.kernels.gemm_cpu import CpuCoreGemmKernel
from repro.kernels.gemm_gpu import gpu_kernel as make_gpu_kernel
from repro.measurement.binding import BindingPlan, ProcessBinding
from repro.platform.device import SimulatedGpu, SimulatedSocket
from repro.util.validation import check_nonnegative


@dataclass(frozen=True)
class DeviceBoundProcess:
    """One application rank with its kernel and contention context."""

    binding: ProcessBinding
    kernel: object  # Kernel protocol
    busy_cpu_cores: int  # CPU kernels sharing the socket (GPU processes)

    @property
    def rank(self) -> int:
        return self.binding.rank

    @property
    def is_dedicated(self) -> bool:
        return self.binding.is_dedicated


def iteration_times(
    processes: Sequence[DeviceBoundProcess], areas: Sequence[float]
) -> list[float]:
    """Ideal seconds of one kernel run of each process on its area.

    Ranks sharing a kernel and a contention state are timed together, in
    one ``run_time_batch`` call per group; element ``i`` equals
    ``processes[i].kernel.run_time(areas[i], processes[i].busy_cpu_cores)``
    bit for bit.  An empty area takes exactly 0.0 s and calls no kernel.
    Every area is checked as ``run_time`` checks it: non-negative and
    within the kernel's valid range.
    """
    if len(processes) != len(areas):
        raise ValueError(f"{len(areas)} areas for {len(processes)} processes")
    times = [0.0] * len(areas)
    groups: dict[tuple[int, int], tuple[object, int, list[int]]] = {}
    for i, (process, area) in enumerate(zip(processes, areas)):
        check_nonnegative("area_blocks", area)
        if area == 0:
            continue
        kernel, busy = process.kernel, process.busy_cpu_cores
        kernel.valid_range.require(area, kernel.name)
        group = groups.get((id(kernel), busy))
        if group is None:
            group = groups[id(kernel), busy] = (kernel, busy, [])
        group[2].append(i)
    for kernel, busy, members in groups.values():
        batch = kernel.run_time_batch([areas[i] for i in members], busy)
        for i, seconds in zip(members, batch.tolist()):
            times[i] = seconds
    return times


def bind_processes(
    plan: BindingPlan,
    sockets: list[SimulatedSocket],
    gpus: list[SimulatedGpu],
    gpu_version: int = 3,
    cpu_loaded: bool = True,
) -> list[DeviceBoundProcess]:
    """Instantiate all ranks of a binding plan with their kernels.

    ``cpu_loaded`` marks whether CPU processes actually receive work (it
    determines the GPU processes' contention state in the default, fully
    loaded application).  The CPU ranks of one socket share one kernel
    object, which is what lets :func:`iteration_times` time them in one
    call.
    """
    processes: list[DeviceBoundProcess] = []
    cpu_kernels: dict[int, CpuCoreGemmKernel] = {}
    for b in plan.bindings:
        cpu_ranks_here = plan.cpu_ranks_on_socket(b.socket_index)
        if b.is_dedicated:
            kernel = make_gpu_kernel(gpus[b.gpu_index], gpu_version)
            busy = len(cpu_ranks_here) if cpu_loaded else 0
        else:
            kernel = cpu_kernels.get(b.socket_index)
            if kernel is None:
                # each CPU process runs the kernel on 1 core; the effective
                # per-core speed reflects all active CPU kernels on the socket
                kernel = cpu_kernels[b.socket_index] = CpuCoreGemmKernel(
                    socket=sockets[b.socket_index],
                    active_cores=max(1, len(cpu_ranks_here)),
                    gpu_active=any(
                        pb.socket_index == b.socket_index and pb.is_dedicated
                        for pb in plan.bindings
                    ),
                )
            busy = 0
        processes.append(
            DeviceBoundProcess(binding=b, kernel=kernel, busy_cpu_cores=busy)
        )
    return processes
