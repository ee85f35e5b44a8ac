"""Per-iteration execution traces of the application.

:func:`trace_execution` replays the bulk-synchronous main loop on the
timeline machinery: for each iteration, a broadcast interval followed by
every process's compute interval.  The trace powers the ASCII Gantt view
(:func:`ascii_gantt`) used by the examples, and gives tests a structural
view of the run (idle time per process, synchronisation overhead) that a
single total-seconds number hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.geometry import ColumnPartition
from repro.runtime.mpi_sim import SimulatedComm
from repro.runtime.process import DeviceBoundProcess, iteration_times
from repro.util.timeline import Timeline
from repro.util.units import blocks_to_bytes


@dataclass(frozen=True)
class ExecutionTrace:
    """A full run as a timeline: one resource per rank, plus "comm"."""

    timeline: Timeline
    n: int
    num_processes: int

    @property
    def makespan(self) -> float:
        return self.timeline.makespan()

    def idle_fraction(self, rank: int) -> float:
        """Fraction of the makespan rank spent neither computing nor in
        broadcasts (waiting on stragglers)."""
        busy = self.timeline.busy_time(f"rank{rank}")
        comm = self.timeline.busy_time("comm")
        span = self.makespan
        if span == 0:
            return 0.0
        return max(0.0, 1.0 - (busy + comm) / span)

    def mean_idle_fraction(self) -> float:
        """Average idle fraction over working ranks — the balance metric."""
        working = [
            r
            for r in range(self.num_processes)
            if self.timeline.busy_time(f"rank{r}") > 0
        ]
        if not working:
            return 0.0
        return sum(self.idle_fraction(r) for r in working) / len(working)


def trace_execution(
    processes: list[DeviceBoundProcess],
    partition: ColumnPartition,
    comm: SimulatedComm,
    block_size: int,
    max_iterations: int | None = None,
) -> ExecutionTrace:
    """Build the iteration-by-iteration trace of the application run.

    ``max_iterations`` truncates the trace (all iterations are identical in
    the static model, so a few suffice for visualisation).
    """
    n = partition.n
    steps = n if max_iterations is None else min(n, max_iterations)
    by_rank = {p.rank: p for p in processes}
    rects = {r.owner: r for r in partition.rectangles}

    areas = {}
    recv_blocks = {}
    for rank in by_rank:
        rect = rects.get(rank)
        areas[rank] = rect.area if rect is not None else 0
        recv_blocks[rank] = rect.height + rect.width if areas[rank] else 0
    times = iteration_times(list(by_rank.values()), list(areas.values()))
    compute = dict(zip(by_rank, times))

    p = len(by_rank)
    depth = math.ceil(math.log2(p)) if p > 1 else 0
    comm_per_iter = max(
        (
            comm.model.latency_s * depth
            + blocks_to_bytes(b, block_size) / (comm.model.bandwidth_gbs * 1e9)
            for b in recv_blocks.values()
        ),
        default=0.0,
    )

    timeline = Timeline()
    clock = 0.0
    step_compute = max(compute.values(), default=0.0)
    for _ in range(steps):
        if comm_per_iter > 0:
            timeline.add("comm", clock, clock + comm_per_iter, "bcast")
        clock += comm_per_iter
        for rank, dur in compute.items():
            if dur > 0:
                timeline.add(f"rank{rank}", clock, clock + dur, "update")
        clock += step_compute
    timeline.validate()
    return ExecutionTrace(timeline=timeline, n=n, num_processes=p)


def ascii_gantt(timeline: Timeline, width: int = 72) -> str:
    """Render a timeline as one ASCII row per resource."""
    span = timeline.makespan()
    if span == 0:
        return "(empty timeline)"
    lines = []
    for resource in timeline.resources():
        row = [" "] * width
        for iv in timeline.on_resource(resource):
            a = int(iv.start / span * (width - 1))
            b = max(a + 1, int(iv.end / span * (width - 1)))
            mark = iv.label[0] if iv.label else "#"
            for i in range(a, min(b, width)):
                row[i] = mark
        lines.append(f"{resource:>8s} |{''.join(row)}|")
    return "\n".join(lines)
