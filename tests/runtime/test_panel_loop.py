"""The SPMD panel-loop simulation against its per-device event oracle."""

import math

import numpy as np
import pytest

from repro.core.integer import round_partition
from repro.core.partition import partition_fpm
from repro.core.speed_function import SpeedFunction
from repro.obs import Tracer, use_tracer
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from repro.runtime.panel_loop import (
    PanelLoopResult,
    simulate_panel_loop,
    simulate_spmd_run,
)

from tests.oracles import panel_loop as oracle


def ramped(peak, half):
    sizes = [half / 4, half, 2 * half, 8 * half, 32 * half]
    return SpeedFunction.from_points(
        sizes, [peak * s / (s + half) for s in sizes]
    )


def assert_identical(a: PanelLoopResult, b: PanelLoopResult) -> None:
    assert a.total_time_s == b.total_time_s
    assert a.comm_time_s == b.comm_time_s
    assert a.compute_time_s == b.compute_time_s
    assert a.panel_finish_s == b.panel_finish_s
    assert a.events_processed == b.events_processed


class TestPanelLoop:
    def test_single_device_single_panel(self):
        result = simulate_panel_loop([2.0], 1, 0.5)
        assert result.total_time_s == 2.5
        assert result.compute_time_s == (2.0,)
        assert result.events_processed == 1

    def test_panels_are_barrier_synchronised(self):
        result = simulate_panel_loop([1.0, 3.0], 2, 0.5)
        # each panel takes comm + slowest compute
        assert result.panel_finish_s == (3.5, 7.0)
        assert result.total_time_s == 7.0
        assert result.compute_time_s == (2.0, 6.0)
        assert result.events_processed == 4

    def test_scalar_and_vector_lanes_bit_identical(self):
        rng = np.random.default_rng(11)
        compute = rng.uniform(0.1, 5.0, size=37)
        vec = simulate_panel_loop(compute, 13, 0.25)
        sca = oracle.simulate_panel_loop(compute, 13, 0.25)
        assert_identical(vec, sca)

    def test_equal_times_and_zero_compute(self):
        compute = np.array([2.0, 2.0, 0.0, 2.0])
        vec = simulate_panel_loop(compute, 3)
        sca = oracle.simulate_panel_loop(compute, 3)
        assert_identical(vec, sca)
        assert vec.total_time_s == 6.0

    def test_delays_that_tie_only_after_the_clock_is_added(self):
        """Distinct delays that round to one fire time once ``now`` is large.

        The production loop sorts the delays once; the oracle schedules
        them in device order.  The equal fire times must still produce
        the same panels, totals and event count on both.
        """
        tiny = 2.0**-40
        compute = np.array([1.0 + tiny, 1e8, 1.0, 1.0 + 2 * tiny, 0.5])
        delays = 0.25 + compute[[0, 2, 3]]
        clock = 0.25 + 1e8  # the clock after the first panel
        assert len(set(delays.tolist())) == 3
        assert len(set((clock + delays).tolist())) == 1
        vec = simulate_panel_loop(compute, 4, 0.25)
        sca = oracle.simulate_panel_loop(compute, 4, 0.25)
        assert_identical(vec, sca)
        assert vec.events_processed == 4 * compute.size

    def test_result_statistics(self):
        result = simulate_panel_loop([1.0, 2.0], 2)
        assert result.makespan_computation_s == 4.0
        assert result.imbalance == 4.0 / 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            simulate_panel_loop([], 3)
        with pytest.raises(ValueError):
            simulate_panel_loop([1.0], 0)
        with pytest.raises(ValueError):
            simulate_panel_loop([-1.0], 1)
        with pytest.raises(ValueError, match="1-D"):
            simulate_panel_loop([[1.0, 2.0]], 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_compute_naming_the_index(self, bad):
        with pytest.raises(ValueError, match=r"compute_s\[1\] is"):
            simulate_panel_loop([1.0, bad, 2.0], 3, 0.1)

    def test_emits_runtime_sim_metrics(self):
        tracer = Tracer()
        with use_tracer(tracer):
            simulate_panel_loop([1.0, 2.0], 4, 0.1)
        counters = tracer.metrics.counters
        assert counters["runtime.sim.panels"].value == 4
        assert counters["runtime.sim.device_events"].value == 8
        assert counters["runtime.sim.runs"].value == 1
        assert tracer.metrics.histograms["runtime.sim.panel_s"].count == 4


class TestSimulatedSpmdRun:
    @pytest.fixture()
    def models(self):
        return [ramped(20.0 + 3 * i, 10.0 + 7 * i) for i in range(9)]

    def test_engines_bit_identical_without_comm(self, models):
        alloc = [40.0 + 11 * i for i in range(len(models))]
        vec = simulate_spmd_run(models, alloc, 7)
        sca = oracle.simulate_spmd_run(models, alloc, 7)
        assert_identical(vec, sca)

    def test_engines_bit_identical_with_comm(self, models):
        comm = SimulatedComm(len(models), CommModel())
        alloc = [40.0 + 11 * i for i in range(len(models))]
        vec = simulate_spmd_run(models, alloc, 5, comm=comm)
        sca = oracle.simulate_spmd_run(models, alloc, 5, comm=comm)
        assert_identical(vec, sca)
        assert vec.comm_time_s > 0.0

    def test_explicit_recv_blocks(self, models):
        comm = SimulatedComm(len(models), CommModel())
        alloc = [50.0] * len(models)
        recv = [4.0 * (i + 1) for i in range(len(models))]
        vec = simulate_spmd_run(models, alloc, 3, comm=comm, recv_blocks=recv)
        sca = oracle.simulate_spmd_run(
            models, alloc, 3, comm=comm, recv_blocks=recv
        )
        assert_identical(vec, sca)

    def test_rejects_mismatched_allocations(self, models):
        with pytest.raises(ValueError):
            simulate_spmd_run(models, [1.0, 2.0], 3)

    def test_rounded_block_counts_match_the_oracle(self, models):
        """Integer plans from round_partition simulate unchanged."""
        comm = SimulatedComm(len(models), CommModel())
        blocks = round_partition(models, partition_fpm(models, 900.0), 900)
        assert all(isinstance(b, int) for b in blocks)
        vec = simulate_spmd_run(models, blocks, 4, comm=comm)
        sca = oracle.simulate_spmd_run(models, blocks, 4, comm=comm)
        assert_identical(vec, sca)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -5.0])
    @pytest.mark.parametrize("with_comm", [False, True])
    def test_rejects_bad_allocations_naming_the_index(
        self, models, bad, with_comm
    ):
        comm = SimulatedComm(len(models), CommModel()) if with_comm else None
        alloc = [40.0] * len(models)
        alloc[3] = bad
        with pytest.raises(ValueError, match=r"allocations\[3\] is"):
            simulate_spmd_run(models, alloc, 3, comm=comm)

    def test_rejects_two_dimensional_allocations(self, models):
        alloc = np.full((3, 3), 40.0)
        with pytest.raises(ValueError, match="allocations must be a 1-D"):
            simulate_spmd_run(models, alloc, 3)
