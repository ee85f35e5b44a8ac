"""Benchmark orchestration for the hybrid node (paper Section III).

:class:`HybridBenchmark` owns the simulated devices, the timer and the
reliability criterion, and exposes the three experiments of Section III:

* socket speed with ``c`` cores running the kernel simultaneously;
* combined GPU + dedicated-core speed (synchronous approach);
* the shared experiment — CPU and GPU kernels running at once on one
  socket with workload split proportionally to their solo speeds — which
  quantifies the contention impact (Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.kernels.gemm_cpu import CpuGemmKernel
from repro.kernels.gemm_gpu import gpu_kernel as make_gpu_kernel
from repro.kernels.interface import Kernel
from repro.measurement.reliability import (
    Measurement,
    ReliabilityCriterion,
    measure_until_reliable,
    measure_until_reliable_rounds,
)
from repro.measurement.timer import SimulatedTimer
from repro.obs import get_tracer
from repro.platform.device import SimulatedGpu, SimulatedSocket, build_devices
from repro.platform.faults import FaultPlan, RetryPolicy
from repro.platform.noise import NoiseModel
from repro.platform.spec import NodeSpec
from repro.util.rng import RngStream
from repro.util.units import gemm_kernel_flops
from repro.util.validation import check_positive


@dataclass(frozen=True)
class SpeedMeasurement:
    """A reliable speed estimate at one problem size."""

    area_blocks: float
    speed_gflops: float
    timing: Measurement


@dataclass
class HybridBenchmark:
    """Benchmarking facade over one simulated hybrid node.

    ``faults`` installs a deterministic fault plan on the timer (its RNG
    stream is disjoint from the noise model's ``"bench"`` stream); failing
    invocations are retried under ``retry`` by the reliability protocol.
    """

    node: NodeSpec
    seed: int = 42
    noise_sigma: float = 0.02
    criterion: ReliabilityCriterion = field(default_factory=ReliabilityCriterion)
    faults: FaultPlan | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        self.sockets, self.gpus = build_devices(self.node)
        noise = NoiseModel(RngStream(self.seed).child("bench"), self.noise_sigma)
        self.timer = SimulatedTimer(noise, faults=self.faults)

    # ------------------------------------------------------------ kernels
    def socket_kernel(
        self, socket_index: int, active_cores: int, gpu_active: bool = False
    ) -> CpuGemmKernel:
        """The CPU kernel bound to ``active_cores`` of one socket."""
        return CpuGemmKernel(
            socket=self._socket(socket_index),
            active_cores=active_cores,
            gpu_active=gpu_active,
        )

    def gpu_kernel(self, gpu_index: int, version: int = 3):
        """The GPU kernel (paper version 1/2/3) of one attached GPU."""
        return make_gpu_kernel(self._gpu(gpu_index), version)

    # ------------------------------------------------------- measurements
    def measure_time(
        self, kernel: Kernel, area_blocks: float, busy_cpu_cores: int = 0
    ) -> Measurement:
        """Reliable mean time of one kernel run at one problem size."""
        check_positive("area_blocks", area_blocks)
        tracer = get_tracer()
        with tracer.span(
            "bench.measure_time",
            category="measurement",
            kernel=kernel.name,
            area_blocks=area_blocks,
        ) as span:
            timing = measure_until_reliable(
                lambda rep, attempt=0: self.timer.time_kernel(
                    kernel, area_blocks, rep, busy_cpu_cores, attempt=attempt
                ),
                self.criterion,
                retry=self.retry,
            )
            if tracer.enabled:
                span.set_attr("mean_s", timing.mean)
                span.set_attr("repetitions", timing.repetitions)
            return timing

    def measure_speed(
        self, kernel: Kernel, area_blocks: float, busy_cpu_cores: int = 0
    ) -> SpeedMeasurement:
        """Reliable speed (GFlops) of a kernel at one problem size."""
        tracer = get_tracer()
        with tracer.span(
            "bench.measure_speed",
            category="measurement",
            kernel=kernel.name,
            area_blocks=area_blocks,
        ) as span:
            timing = self.measure_time(kernel, area_blocks, busy_cpu_cores)
            flops = gemm_kernel_flops(area_blocks, kernel.block_size)
            speed = flops / timing.mean / 1e9
            if tracer.enabled:
                span.set_attr("speed_gflops", speed)
            return SpeedMeasurement(
                area_blocks=area_blocks,
                speed_gflops=speed,
                timing=timing,
            )

    def measure_times(
        self,
        kernel: Kernel,
        sizes: Sequence[float],
        busy_cpu_cores: int = 0,
    ) -> list[Measurement]:
        """Reliable mean times at many problem sizes (the batch fast path).

        The kernel's ideal times come from ONE ``run_time_batch`` call and
        the sizes run the repeat-until-reliable protocol in lockstep
        rounds (:func:`measure_until_reliable_rounds`): round ``k`` draws
        chunk ``k`` of every size still running in one keyed draw.  Every
        returned ``Measurement`` is bit-identical to :meth:`measure_time`
        at the same size.
        """
        sizes = [float(size) for size in sizes]
        for size in sizes:
            check_positive("area_blocks", size)
        tracer = get_tracer()
        with tracer.span(
            "bench.measure_times",
            category="measurement",
            kernel=kernel.name,
            sizes=len(sizes),
        ):
            ideals = kernel.run_time_batch(np.asarray(sizes), busy_cpu_cores)

            def sample_round(active, start, count):
                return self.timer.time_kernel_sweep(
                    kernel,
                    [sizes[i] for i in active],
                    range(start, start + count),
                    busy_cpu_cores,
                    ideal_seconds=ideals[active],
                )

            def sample(i, rep, attempt=0):
                # scalar fallback for repetitions whose round draw was
                # marked as an injected fault (and for their retries)
                return self.timer.time_kernel(
                    kernel, sizes[i], rep, busy_cpu_cores, attempt=attempt
                )

            return measure_until_reliable_rounds(
                sample_round,
                len(sizes),
                self.criterion,
                retry=self.retry,
                sample=sample,
            )

    def measure_speeds(
        self,
        kernel: Kernel,
        sizes: Sequence[float],
        busy_cpu_cores: int = 0,
    ) -> list[SpeedMeasurement]:
        """Reliable speeds (GFlops) at many problem sizes in one sweep.

        The vectorised twin of calling :meth:`measure_speed` per size, with
        bit-identical results — used by the FPM builders and the figure
        sweeps.
        """
        sizes = [float(size) for size in sizes]
        timings = self.measure_times(kernel, sizes, busy_cpu_cores)
        speeds = []
        for size, timing in zip(sizes, timings):
            flops = gemm_kernel_flops(size, kernel.block_size)
            speed = flops / timing.mean / 1e9
            speeds.append(
                SpeedMeasurement(
                    area_blocks=size,
                    speed_gflops=speed,
                    timing=timing,
                )
            )
        return speeds

    def measure_socket_speed(
        self,
        socket_index: int,
        active_cores: int,
        area_blocks: float,
        gpu_active: bool = False,
    ) -> SpeedMeasurement:
        """Socket speed ``s_c(x)`` with ``c`` synchronised cores (Fig. 2)."""
        kernel = self.socket_kernel(socket_index, active_cores, gpu_active)
        return self.measure_speed(kernel, area_blocks)

    def measure_gpu_speed(
        self,
        gpu_index: int,
        area_blocks: float,
        version: int = 3,
        busy_cpu_cores: int = 0,
    ) -> SpeedMeasurement:
        """Combined GPU + dedicated-core speed ``g(x)`` (Fig. 3)."""
        kernel = self.gpu_kernel(gpu_index, version)
        return self.measure_speed(kernel, area_blocks, busy_cpu_cores)

    def measure_shared_socket(
        self,
        gpu_index: int,
        total_area_blocks: float,
        cpu_fraction: float,
        gpu_version: int = 3,
    ) -> tuple[SpeedMeasurement, SpeedMeasurement]:
        """The contention experiment of Fig. 5.

        The socket hosting ``gpu_index`` runs the CPU kernel on its
        non-dedicated cores with ``cpu_fraction`` of the total workload,
        while the GPU (plus dedicated core) runs the GPU kernel with the
        rest — both simultaneously.  Returns (cpu_speed, gpu_speed).
        """
        if not 0.0 < cpu_fraction < 1.0:
            raise ValueError(
                f"cpu_fraction must be in (0, 1), got {cpu_fraction}"
            )
        att = self.node.gpus[gpu_index]
        cpu_cores = self.node.socket_spec(att.socket_index).cores - 1
        cpu_area = total_area_blocks * cpu_fraction
        gpu_area = total_area_blocks - cpu_area
        cpu_speed = self.measure_socket_speed(
            att.socket_index, cpu_cores, cpu_area, gpu_active=True
        )
        gpu_speed = self.measure_gpu_speed(
            gpu_index, gpu_area, gpu_version, busy_cpu_cores=cpu_cores
        )
        return cpu_speed, gpu_speed

    # ------------------------------------------------------------ helpers
    def _socket(self, index: int) -> SimulatedSocket:
        if not 0 <= index < len(self.sockets):
            raise ValueError(
                f"socket index {index} out of range [0, {len(self.sockets)})"
            )
        return self.sockets[index]

    def _gpu(self, index: int) -> SimulatedGpu:
        if not 0 <= index < len(self.gpus):
            raise ValueError(
                f"gpu index {index} out of range [0, {len(self.gpus)})"
            )
        return self.gpus[index]


# Thin functional wrappers (convenient in scripts and docs).
def measure_socket_speed(
    bench: HybridBenchmark, socket_index: int, active_cores: int, area_blocks: float
) -> SpeedMeasurement:
    """See :meth:`HybridBenchmark.measure_socket_speed`."""
    return bench.measure_socket_speed(socket_index, active_cores, area_blocks)


def measure_gpu_speed(
    bench: HybridBenchmark, gpu_index: int, area_blocks: float, version: int = 3
) -> SpeedMeasurement:
    """See :meth:`HybridBenchmark.measure_gpu_speed`."""
    return bench.measure_gpu_speed(gpu_index, area_blocks, version)


def measure_shared_socket(
    bench: HybridBenchmark, gpu_index: int, total_area_blocks: float, cpu_fraction: float
) -> tuple[SpeedMeasurement, SpeedMeasurement]:
    """See :meth:`HybridBenchmark.measure_shared_socket`."""
    return bench.measure_shared_socket(gpu_index, total_area_blocks, cpu_fraction)
