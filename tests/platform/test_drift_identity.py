"""Drift multipliers against the stream oracles, over generated specs.

A :class:`DriftModel` keeps each device's resolved profile and, per
stochastic kind, a table of window factors drawn for a whole block of
windows at once.  These properties hold every answer bit-equal to
:func:`tests.oracles.platform_events.speed_multiplier`, which resolves
the rule table and hashes the whole stream path on every call, whatever
the device order, repeats or subset and whether the memo was filled
before the model was pickled or copied; and to the per-query vectorised
draw the tables replaced (:func:`tests.oracles.drift.speed_multipliers`),
across block boundaries, window lengths and device lists long enough to
shrink a block to the draw budget.
"""

from __future__ import annotations

import copy
import math
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platform import drift as drift_module
from repro.platform.drift import DeviceDrift, DriftModel, DriftSpec
from tests.oracles import drift as query_oracle
from tests.oracles import platform_events as oracle

DEVICES = (
    "GeForce GTX680",
    "Tesla C870",
    "socket0:c5",
    "socket1:c5",
    "socket2:c6",
    "socket3:c6",
)
#: exact names, substrings of one or several names, the wildcard, a miss
PATTERNS = DEVICES + ("GTX680", "C870", "socket", "c6", "*", "absent")

profiles = st.builds(
    DeviceDrift,
    throttle_t0_s=st.one_of(st.none(), st.floats(0.0, 20.0)),
    throttle_tau_s=st.sampled_from([0.0, 0.5, 10.0]),
    throttle_floor=st.floats(0.1, 1.0),
    burst_prob=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
    burst_factor=st.floats(1.0, 4.0),
    burst_len_s=st.floats(0.05, 3.0),
    jitter_sigma=st.sampled_from([0.0, 0.01, 0.3]),
    jitter_window_s=st.floats(0.05, 3.0),
)

specs = st.lists(
    st.tuples(st.sampled_from(PATTERNS), profiles), max_size=5
).map(lambda rules: DriftSpec(rules=tuple(rules)))

instants = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=6)


@st.composite
def subsets(draw):
    """A shuffled, a duplicated or a post-drop device list."""
    order = list(draw(st.permutations(DEVICES)))
    kind = draw(st.sampled_from(["shuffled", "duplicated", "dropped"]))
    if kind == "duplicated":
        return order + draw(st.lists(st.sampled_from(DEVICES), min_size=1))
    if kind == "dropped":
        return order[: draw(st.integers(1, len(order) - 1))]
    return order


def _walked(model, devices, t_s):
    return [oracle.speed_multiplier(model, d, t_s) for d in devices]


@given(spec=specs, seed=st.integers(0, 2**32), devices=subsets(), times=instants)
def test_speed_multipliers_equal_the_oracle(spec, seed, devices, times):
    model = DriftModel.from_spec(spec, seed=seed)
    for t_s in times:
        assert model.speed_multipliers(devices, t_s).tolist() == _walked(
            model, devices, t_s
        )
        assert model.speed_multiplier(devices[0], t_s) == oracle.speed_multiplier(
            model, devices[0], t_s
        )


@given(
    spec=specs,
    seed=st.integers(0, 2**32),
    devices=subsets(),
    times=instants,
    warm=st.booleans(),
    clone=st.sampled_from(["pickle", "deepcopy"]),
)
def test_copied_models_answer_like_the_original(
    spec, seed, devices, times, warm, clone
):
    model = DriftModel.from_spec(spec, seed=seed)
    if warm:  # fill the per-device memo before copying
        model.speed_multipliers(DEVICES, times[0])
    twin = (
        pickle.loads(pickle.dumps(model))
        if clone == "pickle"
        else copy.deepcopy(model)
    )
    for t_s in times:
        expected = _walked(model, devices, t_s)
        assert twin.speed_multipliers(devices, t_s).tolist() == expected
        assert model.speed_multipliers(devices, t_s).tolist() == expected


def _window_lengths(spec: DriftSpec) -> list[float]:
    lengths = [1.0]
    for _, profile in spec.rules:
        lengths += [profile.burst_len_s, profile.jitter_window_s]
    return lengths


@st.composite
def block_walks(draw):
    """A spec, a device list and instants at and around block boundaries.

    A table covers ``size`` windows starting at a multiple of ``size``;
    every size the refill can pick divides ``_BLOCK_WINDOWS``, so the
    instants sit on, just below and just past multiples of it (and of
    some smaller sizes) in each window length of the spec.
    """
    spec = draw(specs)
    lengths = _window_lengths(spec)
    extra = draw(st.integers(0, 400))
    devices = draw(subsets()) + [f"socket{i}:c6" for i in range(extra)]
    instants = []
    for _ in range(draw(st.integers(1, 8))):
        w = draw(st.sampled_from(lengths))
        block = draw(
            st.sampled_from(
                [drift_module._BLOCK_WINDOWS, drift_module._BLOCK_WINDOWS // 2, 2, 1]
            )
        )
        t = draw(st.integers(0, 40)) * block * w
        nudge = draw(st.sampled_from(["on", "below", "past"]))
        if nudge == "below" and t > 0.0:
            t = math.nextafter(t, 0.0)
        elif nudge == "past":
            t = math.nextafter(t, math.inf)
        instants.append(t)
    instants += draw(st.lists(st.floats(0.0, 1e4), max_size=3))
    return spec, devices, instants


@settings(max_examples=60, deadline=None)
@given(walk=block_walks(), seed=st.integers(0, 2**32))
def test_tables_equal_the_per_query_draw(walk, seed):
    spec, devices, instants = walk
    model = DriftModel.from_spec(spec, seed=seed)
    for t_s in instants:
        expected = query_oracle.speed_multipliers(model, devices, t_s)
        speeds = model.speed_multipliers(devices, t_s)
        assert speeds.tolist() == expected.tolist()
        times = model.time_multipliers(devices, t_s)
        assert times.tolist() == (1.0 / expected).tolist()
