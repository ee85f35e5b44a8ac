"""Execution simulation of the blocked parallel matrix multiplication.

The application (paper Fig. 1a) is bulk-synchronous: at each of the ``n``
main-loop iterations the pivot block-column of ``A`` and pivot block-row of
``B`` are broadcast, then every process updates its ``C`` rectangle with
one kernel run.  The iteration completes when the slowest process finishes,
so per-iteration time is the broadcast time plus the maximum kernel time —
and the paper's figures fall out directly: Fig. 6 plots each process's
accumulated computation time, Table II / Fig. 7 the total including
communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.geometry import ColumnPartition
from repro.obs import get_tracer
from repro.runtime.mpi_sim import SimulatedComm
from repro.runtime.panel_loop import simulate_panel_loop
from repro.runtime.process import DeviceBoundProcess, iteration_times
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class ExecutionResult:
    """Simulated timings of one application run."""

    n: int
    total_time: float
    computation_time: tuple[float, ...]  # per process, summed over iterations
    communication_time: float
    iteration_time: float
    areas: tuple[int, ...]  # realized rectangle areas per process

    @property
    def makespan_computation(self) -> float:
        """Computation part of the total (slowest process per iteration)."""
        return max(self.computation_time, default=0.0)

    @property
    def computation_imbalance(self) -> float:
        """max / min positive per-process computation time (1.0 = flat)."""
        positive = [t for t in self.computation_time if t > 0]
        if not positive:
            return 1.0
        return max(positive) / min(positive)


def _iteration_profile(
    processes: list[DeviceBoundProcess], partition: ColumnPartition
) -> tuple[list[int], list[float], list[int]]:
    """Per-rank (areas, kernel times, pivot receive sizes) of one iteration.

    Shared prologue of the analytic and event-simulated execution paths,
    so both time exactly the same per-process profile; the kernel times
    come from one :func:`~repro.runtime.process.iteration_times` pass.
    """
    by_rank = {p.rank: p for p in processes}
    rects = {r.owner: r for r in partition.rectangles}
    missing = set(rects) - set(by_rank)
    if any(rects[owner].area > 0 for owner in missing):
        raise ValueError(
            f"partition assigns work to ranks without processes: "
            f"{sorted(o for o in missing if rects[o].area > 0)}"
        )

    ranks = sorted(by_rank)
    areas = []
    recv_blocks = []
    for rank in ranks:
        rect = rects.get(rank)
        area = rect.area if rect is not None else 0
        areas.append(area)
        recv_blocks.append(rect.height + rect.width if area > 0 else 0)
    compute_per_iter = iteration_times([by_rank[r] for r in ranks], areas)
    return areas, compute_per_iter, recv_blocks


def simulate_execution(
    processes: list[DeviceBoundProcess],
    partition: ColumnPartition,
    comm: SimulatedComm,
    block_size: int,
) -> ExecutionResult:
    """Simulate the full application run over a given matrix arrangement.

    ``processes`` must cover every rectangle owner in ``partition``; ranks
    with empty rectangles simply idle through the compute phase.
    """
    check_positive_int("block_size", block_size)
    n = partition.n
    areas, compute_per_iter, recv_blocks = _iteration_profile(
        processes, partition
    )

    # Broadcast phase: every process receives its pivot column and row
    # pieces; the cost model lives with the communicator (runtime layer).
    p = len(compute_per_iter)
    tracer = get_tracer()
    with tracer.span(
        "exec.simulate", category="app", n=n, processes=p
    ) as span:
        comm_per_iter = comm.pivot_bcast_time(
            recv_blocks, block_size, participants=p
        )

        iteration = comm_per_iter + max(compute_per_iter, default=0.0)
        span.mark_sim(0.0, n * iteration)
        return ExecutionResult(
            n=n,
            total_time=n * iteration,
            computation_time=tuple(n * t for t in compute_per_iter),
            communication_time=n * comm_per_iter,
            iteration_time=iteration,
            areas=tuple(areas),
        )


def simulate_execution_events(
    processes: list[DeviceBoundProcess],
    partition: ColumnPartition,
    comm: SimulatedComm,
    block_size: int,
    *,
    panels: int | None = None,
) -> ExecutionResult:
    """Event-driven twin of :func:`simulate_execution`, panel by panel.

    Instead of multiplying one analytic iteration by ``n``, the run is
    played on the discrete-event engine as ``panels`` barrier-
    synchronised generations (default: all ``n`` main-loop iterations) —
    the substrate for drift, faults, or any per-panel dynamics the
    closed form cannot express.  On static inputs the totals agree with
    the analytic path to float accumulation order
    (:mod:`repro.runtime.panel_loop`).
    """
    check_positive_int("block_size", block_size)
    n = partition.n
    areas, compute_per_iter, recv_blocks = _iteration_profile(
        processes, partition
    )
    p = len(compute_per_iter)
    tracer = get_tracer()
    with tracer.span(
        "exec.simulate_events", category="app", n=n, processes=p
    ) as span:
        comm_per_iter = comm.pivot_bcast_time(
            np.asarray(recv_blocks, dtype=float),
            block_size,
            participants=p,
        )
        result = simulate_panel_loop(
            compute_per_iter,
            panels if panels is not None else n,
            comm_per_iter,
        )
        span.mark_sim(0.0, result.total_time_s)
        return ExecutionResult(
            n=n,
            total_time=result.total_time_s,
            computation_time=result.compute_time_s,
            communication_time=result.comm_time_s,
            iteration_time=result.panel_finish_s[0],
            areas=tuple(areas),
        )
