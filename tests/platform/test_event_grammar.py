"""The ``--faults`` / ``--drift`` clause grammar, pinned verbatim.

Both specs share one grammar (:mod:`repro.platform.events`).  This table
fixes every parse error text, byte for byte, and the merge rules for
clauses that name the same device, so the grammar can move without any
user-visible message or parsed profile changing.
"""

from __future__ import annotations

import pytest

from repro.platform.drift import STEADY, parse_drift_spec
from repro.platform.faults import HEALTHY, parse_fault_spec

PARSERS = {"fault": parse_fault_spec, "drift": parse_drift_spec}

ERRORS = [
    # bad clause shape
    ("fault", "bogus",
     "bad fault clause 'bogus' (expected kind:device:params)"),
    ("fault", "fail:gpu0",
     "bad fault clause 'fail:gpu0' (expected kind:device:params)"),
    ("drift", "throttle:gpu0",
     "bad drift clause 'throttle:gpu0' (expected kind:device:params)"),
    # unknown kind
    ("fault", "explode:gpu0:p=1",
     "unknown fault kind 'explode' in clause 'explode:gpu0:p=1' "
     "(expected fail, spike or drop)"),
    ("drift", "warp:gpu0:p=1",
     "unknown drift kind 'warp' in clause 'warp:gpu0:p=1' "
     "(expected throttle, burst or jitter)"),
    # empty device
    ("fault", "fail::p=1", "empty device in clause 'fail::p=1'"),
    ("drift", "throttle: :t0=1", "empty device in clause 'throttle: :t0=1'"),
    # key=value missing '='
    ("fault", "fail:gpu0:p",
     "bad fault parameter 'p' in clause 'fail:gpu0:p' (expected key=value)"),
    ("drift", "throttle:gpu0:t0",
     "bad drift parameter 't0' in clause 'throttle:gpu0:t0' "
     "(expected key=value)"),
    # non-float value
    ("fault", "fail:gpu0:p=oops",
     "bad fault parameter value 'oops' in clause 'fail:gpu0:p=oops'"),
    ("drift", "throttle:gpu0:t0=abc",
     "bad drift parameter value 'abc' in clause 'throttle:gpu0:t0=abc'"),
    ("drift", "burst:gpu0:p=0.1, x= two",
     "bad drift parameter value ' two' in clause 'burst:gpu0:p=0.1, x= two'"),
    # unknown parameter
    ("fault", "fail:gpu0:p=1,zz=2",
     "unknown parameter(s) ['zz'] for 'fail' in clause 'fail:gpu0:p=1,zz=2' "
     "(allowed: ['code', 'p'])"),
    ("fault", "drop:gpu0:p=1",
     "unknown parameter(s) ['p'] for 'drop' in clause 'drop:gpu0:p=1' "
     "(allowed: ['t'])"),
    ("drift", "throttle:gpu0:t0=1,volume=11,a=1",
     "unknown parameter(s) ['a', 'volume'] for 'throttle' in clause "
     "'throttle:gpu0:t0=1,volume=11,a=1' (allowed: ['floor', 't0', 'tau'])"),
    # missing required parameter
    ("fault", "fail:gpu0:code=13",
     "clause 'fail:gpu0:code=13' needs p=<probability>"),
    ("fault", "spike:gpu0:x=4", "clause 'spike:gpu0:x=4' needs p=<probability>"),
    ("fault", "drop:gpu0:", "clause 'drop:gpu0:' needs t=<seconds>"),
    ("drift", "throttle:gpu0:tau=3",
     "clause 'throttle:gpu0:tau=3' needs t0=<seconds>"),
    ("drift", "burst:gpu0:x=2", "clause 'burst:gpu0:x=2' needs p=<probability>"),
    ("drift", "jitter:gpu0:w=1", "clause 'jitter:gpu0:w=1' needs sigma=<log-std>"),
    # drop:* (checked after the parameters, before the required one)
    ("fault", "drop:*:t=1",
     "drop clauses must name a concrete device, got 'drop:*:t=1'"),
    ("fault", "drop:*:",
     "drop clauses must name a concrete device, got 'drop:*:'"),
    ("fault", "drop:*:zz=1",
     "unknown parameter(s) ['zz'] for 'drop' in clause 'drop:*:zz=1' "
     "(allowed: ['t'])"),
    # the first bad clause wins
    ("fault", "fail:a:p=0.1; bogus; explode:b:p=1",
     "bad fault clause 'bogus' (expected kind:device:params)"),
]


@pytest.mark.parametrize("grammar, text, message", ERRORS)
def test_parse_error_text_is_verbatim(grammar, text, message):
    with pytest.raises(ValueError) as info:
        PARSERS[grammar](text)
    assert str(info.value) == message


@pytest.mark.parametrize("grammar", sorted(PARSERS))
def test_empty_and_blank_clauses_parse_to_nothing(grammar):
    assert PARSERS[grammar](" ; ;").rules == ()


def test_repeated_throttle_resets_tau_and_floor():
    spec = parse_drift_spec(
        "throttle:g:t0=1,tau=2,floor=0.3; throttle:g:t0=5"
    )
    drift = spec.for_device("g")
    assert drift.throttle_t0_s == 5.0
    assert drift.throttle_tau_s == STEADY.throttle_tau_s
    assert drift.throttle_floor == STEADY.throttle_floor


def test_repeated_burst_keeps_factor_and_window():
    spec = parse_drift_spec("burst:g:p=0.1,x=3,len=2; burst:g:p=0.2")
    drift = spec.for_device("g")
    assert (drift.burst_prob, drift.burst_factor, drift.burst_len_s) == (
        0.2, 3.0, 2.0
    )


def test_repeated_jitter_keeps_window():
    drift = parse_drift_spec(
        "jitter:g:sigma=0.1,w=4; jitter:g:sigma=0.2"
    ).for_device("g")
    assert (drift.jitter_sigma, drift.jitter_window_s) == (0.2, 4.0)


def test_repeated_fault_clauses_keep_code_and_factor():
    faults = parse_fault_spec(
        "fail:g:p=0.1,code=13; spike:g:p=0.1,x=4; fail:g:p=0.3; spike:g:p=0.2"
    ).for_device("g")
    assert (faults.fail_prob, faults.error_code) == (0.3, 13)
    assert (faults.spike_prob, faults.spike_factor) == (0.2, 4.0)


def test_other_kinds_survive_a_later_throttle():
    drift = parse_drift_spec(
        "burst:g:p=0.1,x=3; jitter:g:sigma=0.2,w=3; throttle:g:t0=1"
    ).for_device("g")
    assert (drift.burst_prob, drift.burst_factor) == (0.1, 3.0)
    assert (drift.jitter_sigma, drift.jitter_window_s) == (0.2, 3.0)
    assert drift.throttle_t0_s == 1.0


def test_rules_keep_first_mention_order():
    drift = parse_drift_spec(
        "jitter:b:sigma=0.1; throttle:a:t0=1; burst:b:p=0.1; jitter:*:sigma=0.2"
    )
    assert [device for device, _ in drift.rules] == ["b", "a", "*"]
    faults = parse_fault_spec("spike:z:p=0.1; drop:y:t=1; fail:z:p=0.2")
    assert [device for device, _ in faults.rules] == ["z", "y"]
    assert faults.for_device("z").fail_prob == 0.2


def test_device_and_parameter_whitespace_is_stripped():
    spec = parse_fault_spec("  fail : GeForce GTX680 : p = 0.5 , code=3 ")
    assert spec.rules[0][0] == "GeForce GTX680"
    assert spec.for_device("GeForce GTX680").fail_prob == 0.5
    assert spec.for_device("GeForce GTX680").error_code == 3


def test_unmatched_devices_get_the_default_profile():
    assert parse_fault_spec("fail:a:p=1").for_device("b") is HEALTHY
    assert parse_drift_spec("jitter:a:sigma=1").for_device("b") is STEADY
