"""Cluster-scale SPMD panel-loop simulation.

The paper's iterative data-parallel applications (matmul's broadcast-
update main loop, Jacobi sweeps) execute ``P`` *panels*: each panel
distributes pivot data, runs one kernel per device, and completes when
the slowest device finishes — a barrier.  Simulated one event per device
per panel on the discrete-event engine, a 10k-device x 100-panel run is
a million Python heap operations.  This module instead schedules each
panel as **one batched drain generation**
(:meth:`EventSimulator.schedule_batch`) whose fire times come from a
single NumPy expression over the device array, so the whole run costs
O(P) NumPy calls.

Bit-identity contract
---------------------
The per-device event walk is kept as a test fixture
(``tests/oracles/panel_loop.py``), not as a second lane here.  Both run
on the same event engine and perform the same IEEE operations
elementwise — per-device compute times from the solver's stacked
sample matrices (:meth:`BatchSpeedModels.times_at` here, each model's
own :meth:`SpeedFunction.time` there), per-panel collectives from
:meth:`SimulatedComm.pivot_bcast_time` — so totals, per-panel finish
times, per-device compute accumulations and ``events_processed`` are
**bit-identical**.  The identity suites (tests/runtime/test_panel_loop.py
and the hypothesis suite) enforce this; a change to the panel arithmetic
here must update the oracle too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.batch import batch_models
from repro.core.fpm import as_speed_function
from repro.obs import get_tracer
from repro.platform.drift import DriftModel
from repro.runtime.event_sim import EventSimulator
from repro.runtime.mpi_sim import SimulatedComm
from repro.util.units import DEFAULT_BLOCKING_FACTOR
from repro.util.validation import check_nonnegative, check_positive_int


@dataclass(frozen=True)
class PanelLoopResult:
    """Outcome of a simulated P-panel SPMD run."""

    panels: int
    devices: int
    total_time_s: float
    comm_time_s: float
    compute_time_s: tuple[float, ...]  # per-device accumulated kernel time
    panel_finish_s: tuple[float, ...]  # absolute completion time per panel
    events_processed: int

    @property
    def makespan_computation_s(self) -> float:
        """Accumulated kernel time of the slowest device."""
        return max(self.compute_time_s)

    @property
    def imbalance(self) -> float:
        """Slowest over fastest busy device (1.0 == perfect balance)."""
        busy = [t for t in self.compute_time_s if t > 0]
        return max(busy) / min(busy) if busy else 1.0


def _run_vector(
    compute: np.ndarray,
    panels: int,
    comm_s: float,
    drift: DriftModel | None = None,
    names: Sequence[str] | None = None,
):
    sim = EventSimulator()
    devices = compute.size
    # One elementwise add, reused every panel, and sorted once here so
    # each panel's stable sort in schedule_batch sees ascending input.
    # Only the fire times and their count reach on_panel (never which
    # device fired), so the order is unobservable: now + sorted delays
    # is the same ascending time sequence the per-panel sort produced.
    delays = np.sort(comm_s + compute)
    totals = np.zeros(devices)
    finishes = np.empty(panels)
    state = {"panel": 0, "remaining": devices, "effective": compute}

    def schedule_panel(sim2: EventSimulator) -> None:
        state["remaining"] = devices
        if drift is None:
            sim2.schedule_batch(delays, on_panel)
            return
        # Drifted compute at the panel's start instant; one batched
        # multiplier query keeps this lane bit-identical to the scalar
        # per-device walk (DriftModel's own batch contract).
        effective = compute * drift.time_multipliers(names, sim2.now)
        state["effective"] = effective
        sim2.schedule_batch(comm_s + effective, on_panel)

    def on_panel(sim2: EventSimulator, times, indices) -> None:
        state["remaining"] -= indices.size
        if state["remaining"]:
            return  # a foreign event split the generation; wait for the rest
        np.add(totals, state["effective"], out=totals)
        k = state["panel"]
        finishes[k] = sim2.now
        state["panel"] = k + 1
        if state["panel"] < panels:
            schedule_panel(sim2)

    schedule_panel(sim)
    total = sim.run()
    return sim, total, totals, finishes


def _entries(name: str, values) -> np.ndarray:
    """``values`` as a 1-D float array of finite, non-negative entries.

    The error names the first bad index, the contract
    :func:`repro.core.integer.round_partition` keeps for its input.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {x.shape}")
    bad = np.flatnonzero(~np.isfinite(x) | (x < 0.0))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"{name}[{i}] is {x[i]}; expected a finite non-negative number"
        )
    return x


def simulate_panel_loop(
    compute_s,
    panels: int,
    comm_s: float = 0.0,
    *,
    drift: DriftModel | None = None,
    device_names: Sequence[str] | None = None,
) -> PanelLoopResult:
    """Simulate ``panels`` barrier-synchronised panels over a device array.

    ``compute_s[i]`` is device ``i``'s kernel time per panel and
    ``comm_s`` the per-panel collective charged before compute; each
    panel starts when the previous one's slowest device finishes, and is
    scheduled as one batched generation (module doc).

    An optional :class:`~repro.platform.drift.DriftModel` makes device
    speed time-varying: each panel's compute times are stretched by the
    per-device drift time-multiplier sampled at the panel's start
    instant (``device_names`` keys the drift rules), in one batched
    multiplier query per panel.
    """
    check_positive_int("panels", panels)
    check_nonnegative("comm_s", comm_s)
    compute = _entries("compute_s", compute_s)
    if compute.size == 0:
        raise ValueError("compute_s must be non-empty")
    if drift is not None and drift.inert:
        drift = None  # steady platform: keep the precomputed-delay path
    names: tuple[str, ...] | None = None
    if drift is not None:
        if device_names is None:
            raise ValueError("drift requires device_names")
        names = tuple(str(name) for name in device_names)
        if len(names) != compute.size:
            raise ValueError(
                f"{compute.size} devices but {len(names)} device_names"
            )

    tracer = get_tracer()
    with tracer.span(
        "runtime.panel_loop",
        category="runtime",
        devices=int(compute.size),
        panels=panels,
    ) as span:
        sim, total, totals, finishes = _run_vector(
            compute, panels, comm_s, drift, names
        )
        span.mark_sim(0.0, total)
        span.set_attr("events", sim.events_processed)
    comm_total = 0.0
    for _ in range(panels):
        comm_total += comm_s
    if tracer.enabled:
        tracer.counter("runtime.sim.panels").add(panels)
        tracer.counter("runtime.sim.device_events").add(int(compute.size) * panels)
        tracer.counter("runtime.sim.runs").add(1)
        hist = tracer.histogram("runtime.sim.panel_s")
        previous = 0.0
        for finish in finishes:
            hist.observe(float(finish) - previous)
            previous = float(finish)
    return PanelLoopResult(
        panels=panels,
        devices=int(compute.size),
        total_time_s=float(total),
        comm_time_s=comm_total,
        compute_time_s=tuple(totals.tolist()),
        panel_finish_s=tuple(finishes.tolist()),
        events_processed=sim.events_processed,
    )


def simulate_spmd_run(
    models,
    allocations,
    panels: int,
    *,
    comm: SimulatedComm | None = None,
    block_size: int = DEFAULT_BLOCKING_FACTOR,
    recv_blocks=None,
    drift: DriftModel | None = None,
    device_names: Sequence[str] | None = None,
) -> PanelLoopResult:
    """Simulate a P-panel SPMD run of devices described by speed models.

    Per-device per-panel compute times come from the stacked sample
    matrices (:meth:`BatchSpeedModels.times_at`, which is each model's
    :meth:`SpeedFunction.time`); when a communicator is
    given, the per-panel collective is the pivot broadcast over the
    device array, with ``recv_blocks`` defaulting to the square-ish
    rectangle perimeter ``2 * sqrt(allocation)`` blocks per device.
    ``allocations`` must be a 1-D array of finite, non-negative block
    counts (integer block lists pass unchanged).  The run costs
    O(panels) NumPy calls regardless of device count.
    """
    fns = [as_speed_function(m) for m in models]
    if not fns:
        raise ValueError("need at least one performance model")
    alloc = _entries("allocations", allocations)
    if alloc.size != len(fns):
        raise ValueError(
            f"{len(fns)} models but {alloc.size} allocations"
        )
    compute = batch_models(tuple(fns)).times_at(alloc)
    comm_s = 0.0
    if comm is not None:
        recv = (
            np.asarray(recv_blocks, dtype=float)
            if recv_blocks is not None
            else 2.0 * np.sqrt(alloc)
        )
        comm_s = comm.pivot_bcast_time(recv, block_size)
    return simulate_panel_loop(
        compute,
        panels,
        comm_s,
        drift=drift,
        device_names=device_names,
    )
