"""Unit tests for the application execution simulator."""

import pytest

from repro.app import execution
from repro.app.execution import simulate_execution, simulate_execution_events
from repro.core.geometry import column_based_partition
from repro.measurement.binding import default_binding
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from repro.runtime.process import bind_processes

from tests.oracles import panel_loop as oracle


@pytest.fixture()
def processes(node, devices):
    sockets, gpus = devices
    return bind_processes(default_binding(node), sockets, gpus)


@pytest.fixture()
def comm(node):
    return SimulatedComm(node.total_cores, CommModel())


def even_partition(n, p):
    total = n * n
    base, extra = divmod(total, p)
    allocs = [base + (1 if r < extra else 0) for r in range(p)]
    return column_based_partition(allocs, n)


class TestSimulateExecution:
    def test_total_is_iterations_times_iteration(self, processes, comm, node):
        part = even_partition(12, len(processes))
        res = simulate_execution(processes, part, comm, node.block_size)
        assert res.total_time == pytest.approx(12 * res.iteration_time)

    def test_computation_time_per_process(self, processes, comm, node):
        part = even_partition(12, len(processes))
        res = simulate_execution(processes, part, comm, node.block_size)
        by_rank = {p.rank: p for p in processes}
        for rank, t in enumerate(res.computation_time):
            p = by_rank[rank]
            once = p.kernel.run_time(res.areas[rank], p.busy_cpu_cores)
            assert t == 12 * once

    def test_areas_match_partition(self, processes, comm, node):
        part = even_partition(12, len(processes))
        res = simulate_execution(processes, part, comm, node.block_size)
        assert list(res.areas) == part.realized_allocations(len(processes))

    def test_communication_positive(self, processes, comm, node):
        part = even_partition(12, len(processes))
        res = simulate_execution(processes, part, comm, node.block_size)
        assert res.communication_time > 0
        assert res.total_time > res.makespan_computation

    def test_even_distribution_straggles_on_gpu_sockets(
        self, processes, comm, node
    ):
        """Homogeneous distribution leaves GPUs underused: CPU processes
        dominate the iteration (the premise of Fig. 7)."""
        part = even_partition(24, len(processes))
        res = simulate_execution(processes, part, comm, node.block_size)
        dedicated = {0, 6}
        cpu_times = [
            t
            for r, t in enumerate(res.computation_time)
            if r not in dedicated
        ]
        gpu_times = [res.computation_time[0], res.computation_time[6]]
        assert max(gpu_times) < min(cpu_times)

    def test_imbalance_metric(self, processes, comm, node):
        part = even_partition(24, len(processes))
        res = simulate_execution(processes, part, comm, node.block_size)
        assert res.computation_imbalance > 1.0

    def test_rejects_partition_without_processes(self, processes, comm, node):
        part = even_partition(12, 30)  # 30 owners > 24 processes
        with pytest.raises(ValueError, match="without processes"):
            simulate_execution(processes, part, comm, node.block_size)


class TestSimulateExecutionEvents:
    def test_engines_bit_identical(self, processes, comm, node, monkeypatch):
        part = even_partition(12, len(processes))
        vec = simulate_execution_events(processes, part, comm, node.block_size)
        monkeypatch.setattr(
            execution, "simulate_panel_loop", oracle.simulate_panel_loop
        )
        sca = simulate_execution_events(processes, part, comm, node.block_size)
        assert vec.total_time == sca.total_time
        assert vec.computation_time == sca.computation_time
        assert vec.communication_time == sca.communication_time
        assert vec.iteration_time == sca.iteration_time

    def test_matches_analytic_path(self, processes, comm, node):
        part = even_partition(12, len(processes))
        analytic = simulate_execution(processes, part, comm, node.block_size)
        events = simulate_execution_events(
            processes, part, comm, node.block_size
        )
        assert events.total_time == pytest.approx(analytic.total_time)
        assert events.iteration_time == pytest.approx(analytic.iteration_time)
        assert events.communication_time == pytest.approx(
            analytic.communication_time
        )
        for got, want in zip(events.computation_time, analytic.computation_time):
            assert got == pytest.approx(want)
        assert events.areas == analytic.areas

    def test_panel_count_override(self, processes, comm, node):
        part = even_partition(12, len(processes))
        short = simulate_execution_events(
            processes, part, comm, node.block_size, panels=3
        )
        assert short.total_time == pytest.approx(3 * short.iteration_time)

    def test_rejects_partition_without_processes(self, processes, comm, node):
        part = even_partition(12, 30)
        with pytest.raises(ValueError, match="without processes"):
            simulate_execution_events(processes, part, comm, node.block_size)
