"""Unit tests for device-bound processes."""

import pytest

from repro.kernels.gemm_gpu import InCoreGpuGemmKernel
from repro.measurement.binding import default_binding
from repro.runtime.process import DeviceBoundProcess, bind_processes, iteration_times


@pytest.fixture()
def processes(node, devices):
    sockets, gpus = devices
    return bind_processes(default_binding(node), sockets, gpus)


class TestBindProcesses:
    def test_one_process_per_core(self, node, processes):
        assert len(processes) == node.total_cores
        assert [p.rank for p in processes] == list(range(node.total_cores))

    def test_dedicated_processes_have_gpu_kernels(self, processes):
        dedicated = [p for p in processes if p.is_dedicated]
        assert len(dedicated) == 2
        for p in dedicated:
            assert "gpu-gemm" in p.kernel.name

    def test_cpu_processes_have_core_kernels(self, processes):
        cpu = [p for p in processes if not p.is_dedicated]
        assert len(cpu) == 22
        for p in cpu:
            assert "cpu-core-gemm" in p.kernel.name

    def test_gpu_contention_state(self, processes):
        """GPU processes see the 5 CPU kernels of their socket."""
        dedicated = [p for p in processes if p.is_dedicated]
        assert all(p.busy_cpu_cores == 5 for p in dedicated)

    def test_cpu_processes_on_gpu_socket_know_it(self, node, processes):
        by_rank = {p.rank: p for p in processes}
        # rank 1 shares socket 0 with the C870's host process
        assert by_rank[1].kernel.gpu_active is True
        # socket 2 (ranks 12..17) is GPU-free
        assert by_rank[12].kernel.gpu_active is False

    def test_active_core_counts(self, processes):
        by_rank = {p.rank: p for p in processes}
        assert by_rank[1].kernel.active_cores == 5  # socket with GPU
        assert by_rank[12].kernel.active_cores == 6  # full socket

    def test_iteration_time_zero_for_empty(self, processes):
        assert iteration_times(processes[:1], [0]) == [0.0]

    def test_iteration_time_positive(self, processes):
        times = iteration_times(processes, [10.0] * len(processes))
        assert all(t > 0.0 for t in times)

    def test_cpu_ranks_of_a_socket_share_one_kernel(self, node, processes):
        kernels = {}
        for p in processes:
            if not p.is_dedicated:
                kernels.setdefault(p.binding.socket_index, set()).add(id(p.kernel))
        assert sorted(kernels) == list(range(node.num_sockets))
        assert all(len(ids) == 1 for ids in kernels.values())

    def test_unloaded_cpu_removes_gpu_contention(self, node, devices):
        sockets, gpus = devices
        procs = bind_processes(
            default_binding(node), sockets, gpus, cpu_loaded=False
        )
        dedicated = [p for p in procs if p.is_dedicated]
        assert all(p.busy_cpu_cores == 0 for p in dedicated)

    def test_gpu_version_selectable(self, node, devices):
        sockets, gpus = devices
        procs = bind_processes(default_binding(node), sockets, gpus, gpu_version=1)
        dedicated = [p for p in procs if p.is_dedicated]
        assert all("v1" in p.kernel.name for p in dedicated)


class TestIterationTimes:
    """One pass over a plan's ranks equals each rank's own kernel run."""

    def test_equals_each_rank_run_time_bit_for_bit(self, processes):
        areas = [0, 3, 17.5, 0, 250, 1e4] * 4
        times = iteration_times(processes, areas)
        for p, area, t in zip(processes, areas, times):
            want = p.kernel.run_time(area, p.busy_cpu_cores) if area else 0.0
            assert t.hex() == want.hex()

    def test_empty_areas_call_no_kernel(self, processes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel called for an empty area")

        for p in processes:
            monkeypatch.setattr(type(p.kernel), "run_time_batch", refuse)
        assert iteration_times(processes, [0] * len(processes)) == [0.0] * 24

    def test_rejects_a_negative_area(self, processes):
        with pytest.raises(ValueError, match="area_blocks"):
            iteration_times(processes[:2], [5.0, -1.0])

    def test_checks_the_kernel_range(self, processes, devices):
        _, gpus = devices
        kernel = InCoreGpuGemmKernel(gpus[0])
        process = DeviceBoundProcess(processes[0].binding, kernel, 5)
        inside = kernel.memory_limit_blocks / 2
        assert iteration_times([process], [inside]) == [
            kernel.run_time(inside, 5)
        ]
        with pytest.raises(ValueError, match="outside the valid range"):
            iteration_times([process], [kernel.memory_limit_blocks * 2])

    def test_rejects_mismatched_lengths(self, processes):
        with pytest.raises(ValueError, match="2 areas for 3 processes"):
            iteration_times(processes[:3], [1.0, 2.0])
