"""Simulated communicator with a latency/bandwidth cost model.

Processes live on one shared-memory NUMA node, so point-to-point transfers
follow the classic Hockney model ``t = latency + nbytes / bandwidth``.
Collectives are timed round by round over their binomial communication
trees, in closed form: a broadcast's completion is the per-hop time
accumulated along the tree's deepest path, so a rooted subset of
``participants`` ranks is priced by its own tree, not the communicator's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.obs import get_tracer
from repro.util.units import blocks_to_bytes
from repro.util.validation import check_nonnegative, check_positive


@dataclass(frozen=True)
class CommModel:
    """Hockney point-to-point parameters for intra-node messaging.

    Defaults model shared-memory MPI on the paper's node: a few
    microseconds of latency and a couple of GB/s of effective per-pair
    copy bandwidth.
    """

    latency_s: float = 5.0e-6
    bandwidth_gbs: float = 2.0

    def __post_init__(self) -> None:
        check_nonnegative("latency_s", self.latency_s)
        check_positive("bandwidth_gbs", self.bandwidth_gbs)

    def p2p_time(self, nbytes: float) -> float:
        """Seconds to move one message between two processes."""
        check_nonnegative("nbytes", nbytes)
        if nbytes == 0:
            return 0.0
        return self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)


class SimulatedComm:
    """A communicator over ``size`` ranks with a shared cost model."""

    def __init__(self, size: int, model: CommModel = CommModel()):
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self.model = model

    def shrink(self, survivors: int) -> "SimulatedComm":
        """A communicator over the surviving ranks after device failures.

        The simulation analogue of ULFM's ``MPI_Comm_shrink``: the cost
        model is inherited, only the rank count changes.  ``survivors``
        must be in ``[1, size]`` — losing every process is not a
        communicator, it is a crash.
        """
        if not 1 <= survivors <= self.size:
            raise ValueError(
                f"survivors must be in [1, {self.size}], got {survivors}"
            )
        return SimulatedComm(survivors, self.model)

    def bcast_time(self, nbytes: float, participants: int | None = None) -> float:
        """Completion time of a binomial-tree broadcast to ``participants``.

        The root sends to every rank ``2^k`` at once, and rank ``r``
        forwards to ``r + 2^k`` for each ``2^k`` below its lowest set bit
        once the payload arrives, so rank ``r`` holds it after
        ``popcount(r)`` sequential hops.  The broadcast completes when
        the deepest rank below ``p`` has accumulated that many per-hop
        times; this method performs exactly those float additions,
        bit-identical to walking the tree on the event engine (the test
        suite's oracle).
        """
        p = self.size if participants is None else participants
        if p < 1 or p > self.size:
            raise ValueError(
                f"participants must be in [1, {self.size}], got {p}"
            )
        if p == 1 or nbytes == 0:
            return 0.0
        per_hop = self.model.p2p_time(nbytes)
        deepest = p - 1
        depth = max(bin(deepest).count("1"), deepest.bit_length() - 1)
        finish = 0.0
        for _ in range(depth):
            finish += per_hop
        self._trace_collective("mpi.bcast", finish, nbytes, p)
        return finish

    def gather_time(self, nbytes_per_rank: float) -> float:
        """Completion time of a binomial-tree gather to rank 0.

        Symmetric to broadcast for equal contributions (message sizes grow
        toward the root; we charge each merge its combined payload).
        """
        check_nonnegative("nbytes_per_rank", nbytes_per_rank)
        if self.size == 1 or nbytes_per_rank == 0:
            return 0.0
        # reverse binomial tree: at round k, ranks with bit k set send their
        # accumulated 2^k contributions
        total = 0.0
        rounds = math.ceil(math.log2(self.size))
        for k in range(rounds):
            payload = nbytes_per_rank * (2**k)
            total += self.model.p2p_time(payload)
        self._trace_collective("mpi.gather", total, nbytes_per_rank)
        return total

    def _trace_collective(
        self,
        name: str,
        finish: float,
        nbytes: float,
        participants: int | None = None,
    ) -> None:
        """Record one closed-form collective as a completed runtime span.

        ``participants`` is the rank count the collective ran over
        (default: the whole communicator).
        """
        tracer = get_tracer()
        if tracer.enabled:
            tracer.record(
                name,
                category="runtime",
                sim_start_s=0.0,
                sim_end_s=finish,
                nbytes=nbytes,
                participants=self.size if participants is None else participants,
            )

    def pivot_bcast_time(
        self,
        recv_blocks: "Sequence[float] | np.ndarray",
        block_size: int,
        participants: int | None = None,
    ) -> float:
        """Completion time of one pivot distribution of the main loop.

        Every process receives its pivot block-column and block-row pieces
        (``recv_blocks`` entries, in b x b blocks); with a tree
        distribution the completion time is dominated by the largest
        per-process payload plus the tree's latency depth.  The payloads
        are priced in one vectorised expression (the per-panel path of
        cluster-scale simulations); a negative or non-finite entry raises
        ValueError.
        """
        p = self.size if participants is None else participants
        depth = math.ceil(math.log2(p)) if p > 1 else 0
        blocks = np.asarray(recv_blocks, dtype=np.float64)
        finish = 0.0
        if blocks.size:
            finish = float(
                np.max(
                    self.model.latency_s * depth
                    + blocks_to_bytes(blocks, block_size)
                    / (self.model.bandwidth_gbs * 1e9)
                )
            )
        self._trace_collective("mpi.pivot_bcast", finish, 0.0, p)
        return finish

    def barrier_time(self) -> float:
        """A zero-byte dissemination barrier: latency * ceil(log2 p)."""
        if self.size == 1:
            return 0.0
        return self.model.latency_s * math.ceil(math.log2(self.size))

    def scatter_time(self, nbytes_per_rank: float) -> float:
        """Binomial-tree scatter from rank 0, halving payloads per level.

        The root first sends half the data to its subtree peer, then a
        quarter, and so on — each round's message is the portion destined
        for the receiving subtree.
        """
        check_nonnegative("nbytes_per_rank", nbytes_per_rank)
        if self.size == 1 or nbytes_per_rank == 0:
            return 0.0
        total = 0.0
        remaining = self.size
        while remaining > 1:
            half = remaining // 2
            total += self.model.p2p_time(nbytes_per_rank * half)
            remaining -= half
        self._trace_collective("mpi.scatter", total, nbytes_per_rank)
        return total

    def allgather_time(self, nbytes_per_rank: float) -> float:
        """Recursive-doubling allgather: payloads double each round."""
        check_nonnegative("nbytes_per_rank", nbytes_per_rank)
        if self.size == 1 or nbytes_per_rank == 0:
            return 0.0
        rounds = math.ceil(math.log2(self.size))
        total = 0.0
        for k in range(rounds):
            total += self.model.p2p_time(nbytes_per_rank * (2**k))
        self._trace_collective("mpi.allgather", total, nbytes_per_rank)
        return total

    def reduce_time(self, nbytes: float) -> float:
        """Binomial-tree reduction to rank 0 of fixed-size contributions.

        Unlike gather, the payload does not grow toward the root (partial
        results are combined), so every round moves ``nbytes``.
        """
        check_nonnegative("nbytes", nbytes)
        if self.size == 1 or nbytes == 0:
            return 0.0
        rounds = math.ceil(math.log2(self.size))
        finish = rounds * self.model.p2p_time(nbytes)
        self._trace_collective("mpi.reduce", finish, nbytes)
        return finish
