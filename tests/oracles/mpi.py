"""Reference collectives of :class:`~repro.runtime.mpi_sim.SimulatedComm`.

:func:`bcast_time` is the event-driven form that
:meth:`SimulatedComm.bcast_time` replaced with its closed form.  The root
sends to progressively nearer ranks, each receiver forwards in later
rounds, and every hop is one scheduled event on a fresh
:class:`~repro.runtime.event_sim.EventSimulator`; the broadcast completes
at the last delivery.

:func:`pivot_bcast_time` is the per-process generator form that
:meth:`SimulatedComm.pivot_bcast_time` kept for non-array inputs beside
its array expression up to v1.17.0: one scalar payload price per
process, then the maximum.

The identity suites require the production forms to equal these bit for
bit.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.runtime.event_sim import EventSimulator
from repro.runtime.mpi_sim import SimulatedComm
from repro.util.units import blocks_to_bytes


def bcast_time(
    comm: SimulatedComm, nbytes: float, participants: int | None = None
) -> float:
    """Completion time of a binomial-tree broadcast, simulated hop by hop."""
    p = comm.size if participants is None else participants
    if p < 1 or p > comm.size:
        raise ValueError(f"participants must be in [1, {comm.size}], got {p}")
    if p == 1 or nbytes == 0:
        return 0.0
    sim = EventSimulator()
    per_hop = comm.model.p2p_time(nbytes)
    done = [math.inf] * p
    done[0] = 0.0

    def send(sim: EventSimulator, receiver: int) -> None:
        def deliver(sim2: EventSimulator) -> None:
            done[receiver] = sim2.now
            fanout(sim2, receiver)

        sim.schedule(per_hop, deliver)

    def fanout(sim: EventSimulator, rank: int) -> None:
        # binomial tree: rank r sends to r + 2^k for increasing k
        offset = 1
        while rank + offset < p:
            if rank % (2 * offset) == 0:
                send(sim, rank + offset)
                offset *= 2
            else:
                break

    sim.schedule(0.0, lambda sim: fanout(sim, 0))
    sim.run()
    return max(t for t in done if math.isfinite(t))


def pivot_bcast_time(
    comm: SimulatedComm,
    recv_blocks: Iterable[float],
    block_size: int,
    participants: int | None = None,
) -> float:
    """Completion time of one pivot distribution, priced process by process."""
    p = comm.size if participants is None else participants
    depth = math.ceil(math.log2(p)) if p > 1 else 0
    return max(
        (
            comm.model.latency_s * depth
            + blocks_to_bytes(float(blocks), block_size)
            / (comm.model.bandwidth_gbs * 1e9)
            for blocks in recv_blocks
        ),
        default=0.0,
    )
