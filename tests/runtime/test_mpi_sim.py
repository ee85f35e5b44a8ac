"""Unit tests for the simulated communicator."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Tracer, use_tracer
from repro.runtime.mpi_sim import CommModel, SimulatedComm
from tests.oracles import mpi as oracle


class TestCommModel:
    def test_p2p_latency_plus_bandwidth(self):
        m = CommModel(latency_s=1e-5, bandwidth_gbs=2.0)
        assert m.p2p_time(2e9) == pytest.approx(1.0 + 1e-5)

    def test_zero_bytes_free(self):
        assert CommModel().p2p_time(0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CommModel().p2p_time(-1)


class TestBroadcast:
    def test_single_rank_free(self):
        assert SimulatedComm(1).bcast_time(1e6) == 0.0

    def test_two_ranks_one_hop(self):
        comm = SimulatedComm(2)
        assert comm.bcast_time(1e6) == pytest.approx(comm.model.p2p_time(1e6))

    def test_binomial_depth(self):
        """p ranks complete in ceil(log2 p) rounds of equal hops."""
        comm = SimulatedComm(8)
        hop = comm.model.p2p_time(1e6)
        assert comm.bcast_time(1e6) == pytest.approx(3 * hop)

    def test_non_power_of_two(self):
        comm = SimulatedComm(24)
        hop = comm.model.p2p_time(1e6)
        t = comm.bcast_time(1e6)
        assert 4 * hop <= t <= 5 * hop + 1e-12

    def test_partial_participants(self):
        comm = SimulatedComm(16)
        assert comm.bcast_time(1e6, participants=4) < comm.bcast_time(1e6)

    def test_rejects_bad_participants(self):
        with pytest.raises(ValueError):
            SimulatedComm(4).bcast_time(1.0, participants=5)

    def test_monotone_in_size(self):
        comm = SimulatedComm(8)
        assert comm.bcast_time(2e6) > comm.bcast_time(1e6)

    def test_zero_bytes_free(self):
        assert SimulatedComm(8).bcast_time(0) == 0.0

    @given(
        latency_s=st.floats(0.0, 1e-3),
        bandwidth_gbs=st.floats(1e-3, 100.0),
        nbytes=st.one_of(st.just(0.0), st.floats(1.0, 1e9)),
        size=st.integers(1, 256),
        data=st.data(),
    )
    def test_matches_the_event_tree_oracle(
        self, latency_s, bandwidth_gbs, nbytes, size, data
    ):
        comm = SimulatedComm(size, CommModel(latency_s, bandwidth_gbs))
        p = data.draw(st.integers(1, size), label="participants")
        assert comm.bcast_time(nbytes, p) == oracle.bcast_time(comm, nbytes, p)
        assert comm.bcast_time(nbytes) == oracle.bcast_time(comm, nbytes)


class TestCollectiveTrace:
    """A traced collective names the ranks it actually ran over."""

    @staticmethod
    def _traced(call):
        tracer = Tracer()
        with use_tracer(tracer):
            call()
        (span,) = tracer.roots
        return span

    def test_bcast_records_its_participants(self):
        comm = SimulatedComm(16)
        span = self._traced(lambda: comm.bcast_time(1e6, participants=5))
        assert span.name == "mpi.bcast"
        assert span.attrs["participants"] == 5
        assert span.sim_end_s == comm.bcast_time(1e6, participants=5)

    def test_pivot_bcast_records_its_participants(self):
        comm = SimulatedComm(16)
        span = self._traced(lambda: comm.pivot_bcast_time([4.0, 9.0], 640, 3))
        assert span.name == "mpi.pivot_bcast"
        assert span.attrs["participants"] == 3

    def test_whole_communicator_by_default(self):
        span = self._traced(lambda: SimulatedComm(6).bcast_time(1e6))
        assert span.attrs["participants"] == 6


class TestScatterAllgatherReduce:
    def test_scatter_single_rank_free(self):
        assert SimulatedComm(1).scatter_time(1e6) == 0.0

    def test_scatter_halving_payloads(self):
        comm = SimulatedComm(8)
        per = 1e6
        expected = (
            comm.model.p2p_time(4 * per)
            + comm.model.p2p_time(2 * per)
            + comm.model.p2p_time(per)
        )
        assert comm.scatter_time(per) == pytest.approx(expected)

    def test_scatter_cheaper_than_p_sends(self):
        comm = SimulatedComm(16)
        naive = 15 * comm.model.p2p_time(1e6)
        assert comm.scatter_time(1e6) < naive

    def test_allgather_doubling(self):
        comm = SimulatedComm(8)
        per = 1e6
        expected = sum(comm.model.p2p_time(per * 2**k) for k in range(3))
        assert comm.allgather_time(per) == pytest.approx(expected)

    def test_allgather_matches_gather_for_equal_contributions(self):
        comm = SimulatedComm(8)
        assert comm.allgather_time(1e6) == pytest.approx(comm.gather_time(1e6))

    def test_reduce_constant_payload(self):
        comm = SimulatedComm(8)
        assert comm.reduce_time(1e6) == pytest.approx(
            3 * comm.model.p2p_time(1e6)
        )

    def test_reduce_cheaper_than_gather_for_large_p(self):
        comm = SimulatedComm(32)
        assert comm.reduce_time(1e6) < comm.gather_time(1e6)

    def test_zero_bytes_free_everywhere(self):
        comm = SimulatedComm(8)
        assert comm.scatter_time(0) == 0.0
        assert comm.allgather_time(0) == 0.0
        assert comm.reduce_time(0) == 0.0


class TestGatherAndBarrier:
    def test_gather_zero_for_single(self):
        assert SimulatedComm(1).gather_time(100) == 0.0

    def test_gather_grows_with_payload(self):
        comm = SimulatedComm(8)
        assert comm.gather_time(2e6) > comm.gather_time(1e6)

    def test_gather_accounts_growing_messages(self):
        comm = SimulatedComm(8)
        per_rank = 1e6
        # rounds carry 1, 2, 4 contributions
        expected = sum(
            comm.model.p2p_time(per_rank * (2**k)) for k in range(3)
        )
        assert comm.gather_time(per_rank) == pytest.approx(expected)

    def test_barrier_log_depth(self):
        comm = SimulatedComm(24, CommModel(latency_s=1e-6))
        assert comm.barrier_time() == pytest.approx(5e-6)

    def test_barrier_single(self):
        assert SimulatedComm(1).barrier_time() == 0.0

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError):
            SimulatedComm(0)


class TestFastCollectives:
    """The pivot broadcast's array expression against the per-process oracle."""

    @given(
        st.lists(st.floats(0.0, 1e5), max_size=24),
        st.integers(1, 16),
    )
    def test_pivot_bcast_matches_oracle(self, blocks, participants):
        import numpy as np

        comm = SimulatedComm(16)
        want = oracle.pivot_bcast_time(comm, blocks, 640, participants)
        assert comm.pivot_bcast_time(np.array(blocks), 640, participants) == want
        assert comm.pivot_bcast_time(blocks, 640, participants) == want

    @pytest.mark.parametrize("bad", [-4.0, math.nan, math.inf])
    def test_pivot_bcast_rejects_bad_payloads(self, bad):
        """Negative or non-finite payloads raise, as arrays and as lists."""
        import numpy as np

        comm = SimulatedComm(4)
        for recv in (np.array([1.0, bad]), [1.0, bad]):
            with pytest.raises(ValueError, match="area_blocks"):
                comm.pivot_bcast_time(recv, 640)

    def test_pivot_bcast_empty_array(self):
        import numpy as np

        comm = SimulatedComm(4)
        assert comm.pivot_bcast_time(np.array([]), 640) == 0.0
