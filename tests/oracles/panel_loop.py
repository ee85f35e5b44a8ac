"""Reference panel loop: the per-device event walk.

Verbatim copy of the scalar lane (``engine="scalar"``) that
:mod:`repro.runtime.panel_loop` offered beside its batched lane until
v1.15.  It schedules one event per device per panel, and
:func:`simulate_spmd_run` takes each device's compute time from
:meth:`SpeedFunction.time` and the pivot broadcast from
:func:`tests.oracles.mpi.pivot_bcast_time` over a plain list.  The identity
suites require the production loop to return equal results on every
input.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.fpm import as_speed_function
from repro.platform.drift import DriftModel
from repro.runtime.event_sim import EventSimulator
from repro.runtime.mpi_sim import SimulatedComm
from repro.runtime.panel_loop import PanelLoopResult
from repro.util.units import DEFAULT_BLOCKING_FACTOR

from tests.oracles.mpi import pivot_bcast_time


def _run_scalar(
    compute: np.ndarray,
    panels: int,
    comm_s: float,
    drift: DriftModel | None = None,
    names: Sequence[str] | None = None,
):
    sim = EventSimulator()
    devices = compute.size
    totals = np.zeros(devices)
    finishes = np.empty(panels)
    effective = compute.copy()
    state = {"panel": 0, "remaining": devices}

    def make_finish(i: int):
        def finish(sim2: EventSimulator) -> None:
            totals[i] += effective[i]
            state["remaining"] -= 1
            if state["remaining"] == 0:
                k = state["panel"]
                finishes[k] = sim2.now
                state["panel"] = k + 1
                if state["panel"] < panels:
                    start_panel(sim2)

        return finish

    finishers = [make_finish(i) for i in range(devices)]

    def start_panel(sim2: EventSimulator) -> None:
        state["remaining"] = devices
        if drift is not None:
            now = sim2.now
            for i in range(devices):
                effective[i] = compute[i] * drift.time_multiplier(names[i], now)
        for i in range(devices):
            sim2.schedule(comm_s + effective[i], finishers[i])

    start_panel(sim)
    total = sim.run()
    return sim, total, totals, finishes


def simulate_panel_loop(
    compute_s,
    panels: int,
    comm_s: float = 0.0,
    *,
    drift: DriftModel | None = None,
    device_names: Sequence[str] | None = None,
) -> PanelLoopResult:
    """The scalar-lane form of :func:`repro.runtime.panel_loop.simulate_panel_loop`.

    Inputs are assumed valid; the production function checks them.
    """
    compute = np.asarray(compute_s, dtype=float)
    if drift is not None and drift.inert:
        drift = None
    names = None
    if drift is not None:
        names = tuple(str(name) for name in device_names)
    sim, total, totals, finishes = _run_scalar(
        compute, panels, comm_s, drift, names
    )
    comm_total = 0.0
    for _ in range(panels):
        comm_total += comm_s
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
    """The scalar-lane form of :func:`repro.runtime.panel_loop.simulate_spmd_run`."""
    fns = [as_speed_function(m) for m in models]
    alloc = np.asarray(allocations, dtype=float)
    compute = np.array([fn.time(float(a)) for fn, a in zip(fns, alloc)])
    comm_s = 0.0
    if comm is not None:
        recv = (
            [float(r) for r in recv_blocks]
            if recv_blocks is not None
            else [2.0 * math.sqrt(float(a)) for a in alloc]
        )
        comm_s = pivot_bcast_time(comm, recv, block_size)
    return simulate_panel_loop(
        compute,
        panels,
        comm_s,
        drift=drift,
        device_names=device_names,
    )
