"""Heterogeneous-socket nodes through the whole pipeline.

A node mixing CPU generations (a slow 4-core socket alongside the fast
6-core Opterons) exercises the ``socket_overrides`` path: binding, device
construction, compute units, models and partitioning must all respect the
per-socket specs.
"""

import dataclasses

import pytest

from repro.app.matmul import HybridMatMul, PartitioningStrategy
from repro.kernels.gemm_cpu import CpuGemmKernel
from repro.kernels.interface import kernel_speed_gflops
from repro.measurement.binding import default_binding
from repro.platform.device import build_devices
from repro.platform.presets import opteron_8439se, tesla_c870
from repro.platform.spec import GpuAttachment, NodeSpec, SocketSpec


def slow_socket():
    """An older, slower 4-core socket."""
    cpu = dataclasses.replace(
        opteron_8439se(), name="Old Xeon", peak_gflops=9.0
    )
    return SocketSpec(cpu=cpu, cores=4, memory_gb=8.0, contention_alpha=0.06)


@pytest.fixture(scope="module")
def mixed_node():
    fast = SocketSpec(cpu=opteron_8439se(), cores=6, memory_gb=16.0)
    return NodeSpec(
        name="mixed",
        socket=fast,
        num_sockets=3,
        gpus=(GpuAttachment(tesla_c870(), 0),),
        socket_overrides=((2, slow_socket()),),
    )


class TestSpec:
    def test_socket_spec_lookup(self, mixed_node):
        assert mixed_node.socket_spec(0).cores == 6
        assert mixed_node.socket_spec(2).cores == 4
        assert mixed_node.heterogeneous_sockets

    def test_total_cores_counts_overrides(self, mixed_node):
        assert mixed_node.total_cores == 6 + 6 + 4

    def test_override_validation(self):
        fast = SocketSpec(cpu=opteron_8439se(), cores=6, memory_gb=16.0)
        with pytest.raises(ValueError, match="outside"):
            NodeSpec(
                name="bad",
                socket=fast,
                num_sockets=2,
                socket_overrides=((5, slow_socket()),),
            )
        with pytest.raises(ValueError, match="duplicate"):
            NodeSpec(
                name="bad",
                socket=fast,
                num_sockets=2,
                socket_overrides=((0, slow_socket()), (0, slow_socket())),
            )

    def test_gpu_capacity_check_uses_override(self):
        tiny = SocketSpec(cpu=opteron_8439se(), cores=1, memory_gb=4.0)
        fast = SocketSpec(cpu=opteron_8439se(), cores=6, memory_gb=16.0)
        with pytest.raises(ValueError, match="dedicated"):
            NodeSpec(
                name="bad",
                socket=fast,
                num_sockets=2,
                gpus=(GpuAttachment(tesla_c870(), 1),),
                socket_overrides=((1, tiny),),
            )


class TestDevicesAndBinding:
    def test_devices_use_per_socket_specs(self, mixed_node):
        sockets, _ = build_devices(mixed_node)
        assert sockets[0].spec.cores == 6
        assert sockets[2].spec.cores == 4
        assert sockets[2].spec.cpu.name == "Old Xeon"

    def test_binding_covers_all_cores(self, mixed_node):
        plan = default_binding(mixed_node)
        assert plan.num_processes == 16
        assert len(plan.cpu_ranks_on_socket(0)) == 5  # GPU takes one core
        assert len(plan.cpu_ranks_on_socket(2)) == 4

    def test_slow_socket_really_slower(self, mixed_node):
        sockets, _ = build_devices(mixed_node)
        fast = kernel_speed_gflops(CpuGemmKernel(sockets[1], 6), 400)
        slow = kernel_speed_gflops(CpuGemmKernel(sockets[2], 4), 400)
        assert slow < fast / 2


class TestPipeline:
    @pytest.fixture(scope="class")
    def app(self, mixed_node):
        app = HybridMatMul(mixed_node, seed=17, noise_sigma=0.01)
        app.build_models(
            max_blocks=1200.0, cpu_points=6, gpu_points=8, adaptive=False
        )
        return app

    def test_units_reflect_heterogeneity(self, app):
        units = {u.name: u for u in app.compute_units()}
        assert "socket0:c5" in units
        assert "socket1:c6" in units
        assert "socket2:c4" in units

    def test_fpm_gives_slow_socket_less(self, app):
        plan = app.plan(25, PartitioningStrategy.FPM)
        alloc = dict(zip((u.name for u in plan.units), plan.unit_allocations))
        assert alloc["socket2:c4"] < alloc["socket1:c6"] / 2

    def test_execution_balanced(self, app):
        plan, result = app.run(25, PartitioningStrategy.FPM)
        assert sum(plan.unit_allocations) == 625
        assert result.computation_imbalance < 1.6

    def test_beats_homogeneous(self, app):
        _, fpm = app.run(25, PartitioningStrategy.FPM)
        _, hom = app.run(25, PartitioningStrategy.HOMOGENEOUS)
        assert fpm.total_time < hom.total_time