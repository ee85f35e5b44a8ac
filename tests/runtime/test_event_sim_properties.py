"""Property-based tests of the discrete-event engine (hypothesis).

The collectives' timing correctness rests on three engine invariants:
events fire in (time, insertion-sequence) order, the clock never runs
backwards, and identical schedules replay identically.  The batch lane
adds a fourth: ``schedule_batch`` must observe exactly the fire times
and orderings of the equivalent per-element ``schedule`` calls — also
when its generations interleave with scalar-lane events.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.speed_function import SpeedFunction
from repro.runtime.event_sim import EventSimulator
from repro.runtime.panel_loop import simulate_panel_loop, simulate_spmd_run

from tests.oracles import panel_loop as oracle

pytestmark = pytest.mark.property

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30
)


def _run_schedule(schedule: list[float]) -> list[tuple[float, int]]:
    """Schedule every delay up front; return (fire time, label) in order."""
    sim = EventSimulator()
    fired: list[tuple[float, int]] = []
    for label, delay in enumerate(schedule):
        sim.schedule(delay, lambda s, label=label: fired.append((s.now, label)))
    sim.run()
    return fired


@given(delays)
def test_events_fire_in_time_then_insertion_order(schedule):
    fired = _run_schedule(schedule)
    assert len(fired) == len(schedule)
    for (t0, l0), (t1, l1) in zip(fired, fired[1:]):
        assert t0 <= t1
        if t0 == t1:
            assert l0 < l1  # determinism: ties break by insertion sequence


@given(delays, st.lists(st.floats(min_value=0.0, max_value=10.0), max_size=5))
def test_clock_is_monotone_under_nested_scheduling(schedule, follow_ups):
    sim = EventSimulator()
    observed: list[float] = []

    def action(s: EventSimulator) -> None:
        observed.append(s.now)
        for extra in follow_ups:
            s.schedule(extra, lambda s2: observed.append(s2.now))

    for delay in schedule:
        sim.schedule(delay, action)
    end = sim.run()
    assert observed == sorted(observed)
    assert sim.events_processed == len(observed)
    assert sim.pending == 0
    assert end == (max(observed) if observed else 0.0)


@given(delays)
def test_identical_schedules_replay_identically(schedule):
    assert _run_schedule(schedule) == _run_schedule(schedule)


@given(st.floats(min_value=0.0, max_value=50.0), st.integers(2, 10))
def test_simultaneous_events_fire_in_insertion_order(delay, n):
    fired = _run_schedule([delay] * n)
    assert [label for _, label in fired] == list(range(n))
    assert all(t == fired[0][0] for t, _ in fired)


# ---------------------------------------------------------------------------
# batch lane == scalar lane
# ---------------------------------------------------------------------------


@given(delays)
def test_batch_lane_observes_scalar_lane_order(schedule):
    """``schedule_batch`` fires every element at the scalar lane's time,
    in the scalar lane's tie order, regardless of how the generation is
    chunked into callbacks."""
    scalar = _run_schedule(schedule)

    sim = EventSimulator()
    fired: list[tuple[float, int]] = []

    def on_chunk(s, times, indices):
        fired.extend(zip(times.tolist(), indices.tolist()))

    sim.schedule_batch(schedule, on_chunk)
    end = sim.run()
    assert fired == scalar
    assert end == max(t for t, _ in scalar)
    assert sim.pending == 0


@given(
    delays,
    st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
)
def test_batch_lane_interleaves_with_scalar_events(batch, extras):
    """A mixed schedule fires in one global (time, insertion) order.

    The oracle runs everything through the scalar lane; the subject
    pushes ``batch`` through ``schedule_batch`` first (so its sequence
    numbers precede the scalar extras, as in the oracle)."""
    oracle = _run_schedule(list(batch) + list(extras))

    sim = EventSimulator()
    fired: list[tuple[float, int]] = []

    def on_chunk(s, times, indices):
        fired.extend(zip(times.tolist(), indices.tolist()))

    sim.schedule_batch(batch, on_chunk)
    for label, delay in enumerate(extras):
        offset_label = len(batch) + label
        sim.schedule(
            delay,
            lambda s, lab=offset_label: fired.append((s.now, lab)),
        )
    sim.run()
    assert fired == oracle


@given(
    compute=st.lists(
        st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20
    ),
    panels=st.integers(min_value=1, max_value=12),
    comm=st.floats(min_value=0.0, max_value=3.0),
)
@settings(deadline=None)
def test_panel_loop_engines_bit_identical(compute, panels, comm):
    vec = simulate_panel_loop(compute, panels, comm)
    sca = oracle.simulate_panel_loop(compute, panels, comm)
    assert vec.total_time_s == sca.total_time_s
    assert vec.comm_time_s == sca.comm_time_s
    assert vec.compute_time_s == sca.compute_time_s
    assert vec.panel_finish_s == sca.panel_finish_s
    assert vec.events_processed == sca.events_processed


@given(
    seeds=st.lists(
        st.tuples(
            st.floats(min_value=5.0, max_value=100.0),  # peak speed
            st.floats(min_value=2.0, max_value=50.0),  # half-saturation
            st.floats(min_value=10.0, max_value=200.0),  # allocation
        ),
        min_size=1,
        max_size=8,
    ),
    panels=st.integers(min_value=1, max_value=8),
)
@settings(deadline=None, max_examples=40)
def test_spmd_run_engines_bit_identical(seeds, panels):
    models = []
    for peak, half, _ in seeds:
        sizes = [half / 2, half, 4 * half, 16 * half]
        models.append(
            SpeedFunction.from_points(
                sizes, [peak * s / (s + half) for s in sizes]
            )
        )
    alloc = [a for _, _, a in seeds]
    vec = simulate_spmd_run(models, alloc, panels)
    sca = oracle.simulate_spmd_run(models, alloc, panels)
    assert vec.total_time_s == sca.total_time_s
    assert vec.panel_finish_s == sca.panel_finish_s
    assert vec.compute_time_s == sca.compute_time_s
