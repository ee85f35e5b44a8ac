"""The ``drift`` request block: drifted solves and their strict 4xxs."""

from __future__ import annotations

import json

import pytest

from repro.platform.drift import DriftModel
from tests.service.conftest import FAST_MODEL, make_body


def _error_code(response) -> str:
    payload = response.json
    assert set(payload) == {"error"}
    return payload["error"]["code"]


def _drift_body(
    spec: str,
    at_s: float = 30.0,
    preset: str = "ig_icl",
    total_blocks: float = 400.0,
    **extra,
) -> bytes:
    return json.dumps(
        {
            "preset": preset,
            "total_blocks": total_blocks,
            "strategy": "fpm",
            "model": FAST_MODEL,
            "drift": {"spec": spec, "at_s": at_s, **extra},
        }
    ).encode("utf-8")


THROTTLE = "throttle:GTX680:t0=2,tau=0,floor=0.5"


# --------------------------------------------------------------- happy path
def test_drifted_answer_shifts_work_off_the_throttled_gpu(run_service):
    async def scenario(svc):
        steady = await svc.handle(
            "POST", "/partition", make_body(preset="ig_icl")
        )
        drifted = await svc.handle("POST", "/partition", _drift_body(THROTTLE))
        return steady, drifted

    steady, drifted = run_service(scenario)
    assert steady.status == 200 and drifted.status == 200
    payload = drifted.json
    assert payload["drift"]["spec"] == THROTTLE
    assert payload["drift"]["at_s"] == 30.0
    gtx = "GeForce GTX680"
    assert payload["drift"]["multipliers"][gtx] == 0.5
    assert all(
        m == 1.0
        for name, m in payload["drift"]["multipliers"].items()
        if name != gtx
    )
    # the halved GPU gets fewer blocks; the workload total is conserved
    assert payload["allocation"][gtx] < steady.json["allocation"][gtx]
    assert sum(payload["allocation"].values()) == pytest.approx(400.0)
    # drift scales the solve, not the build: one model set serves both
    assert payload["model_key"] == steady.json["model_key"]


def test_drift_speeds_come_from_one_batched_query(run_service, monkeypatch):
    spec = "jitter:*:sigma=0.2,w=0.5; burst:socket:p=0.5,x=2,len=0.25"
    queries = []
    batched = DriftModel.speed_multipliers

    def counted(model, devices, t_s):
        queries.append(list(devices))
        return batched(model, devices, t_s)

    monkeypatch.setattr(DriftModel, "speed_multipliers", counted)

    async def scenario(svc):
        return await svc.handle(
            "POST", "/partition", _drift_body(spec, at_s=7.3, seed=5)
        )

    response = run_service(scenario)
    assert response.status == 200
    multipliers = response.json["drift"]["multipliers"]
    assert queries == [list(multipliers)]
    monkeypatch.undo()
    model = DriftModel.from_spec(spec, seed=5)
    assert multipliers == {
        name: model.speed_multiplier(name, 7.3) for name in multipliers
    }
    assert len(set(multipliers.values())) > 1


def test_drift_before_onset_matches_the_stationary_answer(run_service):
    async def scenario(svc):
        steady = await svc.handle(
            "POST", "/partition", make_body(preset="ig_icl")
        )
        early = await svc.handle(
            "POST", "/partition", _drift_body(THROTTLE, at_s=1.0)
        )
        return steady, early

    steady, early = run_service(scenario)
    assert all(m == 1.0 for m in early.json["drift"]["multipliers"].values())
    assert early.json["allocation"] == steady.json["allocation"]


def test_drifted_answers_are_cached_by_their_own_key(run_service):
    async def scenario(svc):
        first = await svc.handle("POST", "/partition", _drift_body(THROTTLE))
        again = await svc.handle("POST", "/partition", _drift_body(THROTTLE))
        other_t = await svc.handle(
            "POST", "/partition", _drift_body(THROTTLE, at_s=1.0)
        )
        return first, again, other_t

    first, again, other_t = run_service(scenario)
    assert first.json["source"] == "built"
    assert again.json["source"] == "hot"
    assert again.json["allocation"] == first.json["allocation"]
    # a different at_s is a different answer, never a stale hot hit
    assert other_t.json["source"] != "hot"


def test_drifted_solve_does_not_poison_the_warm_chain(run_service):
    # A stationary answer served after a drifted one must equal the
    # stationary answer of a fresh service: the drift-scaled solver
    # state must never seed the warm-resolve cache.
    async def drift_then_steady(svc):
        await svc.handle("POST", "/partition", _drift_body(THROTTLE))
        return await svc.handle(
            "POST", "/partition", make_body(preset="ig_icl", total_blocks=900.0)
        )

    async def steady_only(svc):
        return await svc.handle(
            "POST", "/partition", make_body(preset="ig_icl", total_blocks=900.0)
        )

    after_drift = run_service(drift_then_steady)
    fresh = run_service(steady_only)
    assert after_drift.json["allocation"] == fresh.json["allocation"]
    assert "drift" not in after_drift.json


# ------------------------------------------------------------- strict 4xxs
@pytest.mark.parametrize(
    "drift_block, code",
    [
        ({}, "bad-drift-knob"),  # spec is required
        ({"spec": 7}, "bad-drift-knob"),
        ({"spec": "throttle:GTX680:tau=1"}, "bad-drift-knob"),  # t0 missing
        ({"spec": "warp:GTX680:t0=1"}, "bad-drift-knob"),
        ({"spec": THROTTLE, "at_s": -1.0}, "bad-drift-knob"),
        ({"spec": THROTTLE, "at_s": "soon"}, "bad-drift-knob"),
        ({"spec": THROTTLE, "seed": 1.5}, "bad-drift-knob"),
        ({"spec": THROTTLE, "tempo": 3}, "unknown-field"),
        ("throttle", "bad-drift-knob"),  # block must be an object
        # non-finite knobs are spec errors, not internal ones
        ({"spec": "burst:*:p=1,x=nan"}, "bad-drift-knob"),
        ({"spec": "burst:*:p=1,x=inf"}, "bad-drift-knob"),
        ({"spec": "burst:*:p=1,len=nan"}, "bad-drift-knob"),
        ({"spec": "jitter:*:sigma=0.1,w=nan"}, "bad-drift-knob"),
    ],
)
def test_bad_drift_blocks_are_structured_400s(run_service, drift_block, code):
    body = json.dumps(
        {
            "preset": "cpu_only",
            "total_blocks": 400.0,
            "model": FAST_MODEL,
            "drift": drift_block,
        }
    ).encode("utf-8")

    async def scenario(svc):
        return await svc.handle("POST", "/partition", body)

    response = run_service(scenario)
    assert response.status == 400
    assert _error_code(response) == code


def test_drift_with_hierarchy_is_rejected(run_service):
    body = json.dumps(
        {
            "preset": "cpu_only",
            "total_blocks": 400.0,
            "model": FAST_MODEL,
            "hierarchy": {"nodes": 4},
            "drift": {"spec": "jitter:*:sigma=0.1"},
        }
    ).encode("utf-8")

    async def scenario(svc):
        return await svc.handle("POST", "/partition", body)

    response = run_service(scenario)
    assert response.status == 400
    assert _error_code(response) == "bad-drift-knob"
