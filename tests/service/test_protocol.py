"""Protocol and endpoint behaviour of the partition service.

Covers the strict-4xx contract (malformed input is always a structured
client error, never a 500), the routing surface (/partition, /healthz,
/metrics, 404, 405), the content-addressed request keys, and the raw
HTTP transport (keep-alive, framing rejects, size limits).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import __version__
from repro.platform.presets import ig_icl_node
from repro.service import ProtocolError, parse_partition_request, protocol
from repro.service.protocol import unknown_spec_fields
from repro.platform.spec import NodeSpec
from repro.util.serde import to_jsonable

from tests.service.conftest import make_body


def _error_code(response) -> str:
    payload = response.json
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message"}
    return payload["error"]["code"]


# --------------------------------------------------------------- happy path
def test_partition_returns_full_allocation(run_service, body):
    async def scenario(svc):
        return await svc.handle("POST", "/partition", body(total_blocks=900.0))

    response = run_service(scenario)
    assert response.status == 200
    payload = response.json
    assert payload["total_blocks"] == 900.0
    assert payload["strategy"] == "fpm"
    assert payload["source"] == "built"
    assert payload["units"] == sorted(payload["units"])
    assert set(payload["allocation"]) == set(payload["units"])
    assert sum(payload["allocation"].values()) == pytest.approx(900.0)
    key = payload["model_key"]
    assert len(key) == 32 and set(key) <= set("0123456789abcdef")


def test_repeated_request_is_served_hot(run_service, body):
    async def scenario(svc):
        first = await svc.handle("POST", "/partition", body())
        second = await svc.handle("POST", "/partition", body())
        return first, second

    first, second = run_service(scenario)
    assert first.json["source"] == "built"
    assert second.json["source"] == "hot"
    assert second.json["allocation"] == first.json["allocation"]


def test_same_models_different_size_is_warm(run_service, body):
    async def scenario(svc):
        first = await svc.handle("POST", "/partition", body(total_blocks=400.0))
        second = await svc.handle("POST", "/partition", body(total_blocks=900.0))
        return first, second

    first, second = run_service(scenario)
    assert first.json["source"] == "built"
    # distinct answer, same model set: model LRU hit, no rebuild
    assert second.json["source"] == "warm"
    assert second.json["model_key"] == first.json["model_key"]


def test_inline_node_spec_is_accepted(run_service):
    spec = to_jsonable(ig_icl_node())
    body = json.dumps(
        {
            "node": spec,
            "total_blocks": 400.0,
            "model": {"cpu_points": 4, "gpu_points": 5, "adaptive": False,
                      "max_blocks": 1800.0, "noise_sigma": 0.01},
        }
    ).encode()

    async def scenario(svc):
        return await svc.handle("POST", "/partition", body)

    response = run_service(scenario)
    assert response.status == 200
    assert sum(response.json["allocation"].values()) == pytest.approx(400.0)


# ----------------------------------------------------------- other endpoints
def test_healthz_reports_service_state(run_service):
    async def scenario(svc):
        return await svc.handle("GET", "/healthz")

    payload = run_service(scenario).json
    assert payload["status"] == "ok"
    assert payload["version"] == __version__
    assert payload["uptime_s"] >= 0.0
    assert payload["workers"] >= 1
    assert payload["inflight_builds"] == 0


def test_metrics_json_counts_requests(run_service, body):
    async def scenario(svc):
        await svc.handle("POST", "/partition", body())
        await svc.handle("POST", "/partition", body())
        return await svc.handle("GET", "/metrics")

    payload = run_service(scenario).json
    assert payload["counters"]["service.requests"] == 2
    assert payload["counters"]["service.status.2xx"] == 2
    assert payload["counters"]["service.partition.built"] == 1
    assert payload["counters"]["service.partition.hot"] == 1
    request_hist = payload["histograms"]["service.request_s"]
    assert request_hist["count"] == 2
    assert request_hist["p50"] > 0.0
    assert request_hist["p99"] >= request_hist["p50"]


def test_metrics_prometheus_text_format(run_service, body):
    async def scenario(svc):
        await svc.handle("POST", "/partition", body())
        return await svc.handle("GET", "/metrics?format=prometheus")

    response = run_service(scenario)
    assert response.status == 200
    assert response.content_type.startswith("text/plain")
    text = response.body.decode()
    assert "# TYPE repro_service_requests_total counter" in text
    assert "repro_service_requests_total 1" in text
    assert '# TYPE repro_service_request_s histogram' in text
    assert 'repro_service_request_s_bucket{le="+Inf"} 1' in text
    assert "repro_service_request_s_count 1" in text


def test_metrics_unknown_format_is_400(run_service):
    async def scenario(svc):
        return await svc.handle("GET", "/metrics?format=xml")

    response = run_service(scenario)
    assert response.status == 400
    assert _error_code(response) == "bad-format"


def test_unknown_route_is_404(run_service):
    async def scenario(svc):
        return await svc.handle("GET", "/nope")

    response = run_service(scenario)
    assert response.status == 404
    assert _error_code(response) == "not-found"


@pytest.mark.parametrize(
    "method, target",
    [("POST", "/healthz"), ("POST", "/metrics"), ("GET", "/partition"),
     ("DELETE", "/partition")],
)
def test_wrong_method_is_405(run_service, method, target):
    async def scenario(svc):
        return await svc.handle(method, target)

    response = run_service(scenario)
    assert response.status == 405
    assert _error_code(response) == "method-not-allowed"


# --------------------------------------------------- strict request parsing
@pytest.mark.parametrize(
    "raw, code",
    [
        (b"\xff\xfe junk", "bad-encoding"),
        (b"{not json", "bad-json"),
        (b"[1, 2, 3]", "bad-json"),
        (b'"a string"', "bad-json"),
        (b"", "bad-json"),
    ],
)
def test_unparseable_bodies(raw, code):
    with pytest.raises(ProtocolError) as excinfo:
        parse_partition_request(raw)
    assert excinfo.value.status == 400
    assert excinfo.value.code == code


def _mutated(**changes) -> bytes:
    base = {
        "preset": "cpu_only",
        "total_blocks": 400.0,
        "strategy": "fpm",
        "model": {"cpu_points": 4},
    }
    base.update(changes)
    return json.dumps({k: v for k, v in base.items() if v is not ...}).encode()


@pytest.mark.parametrize(
    "mutation, code",
    [
        ({"surprise": 1}, "unknown-field"),
        ({"preset": "no-such-preset"}, "bad-platform"),
        ({"preset": ..., }, "bad-platform"),  # neither node nor preset
        ({"node": {"name": "x"}}, "bad-platform"),  # both node and preset
        ({"node": 7, "preset": ...}, "bad-platform"),
        ({"total_blocks": ...}, "missing-field"),
        ({"total_blocks": "many"}, "bad-number"),
        ({"total_blocks": True}, "bad-number"),
        ({"total_blocks": -5}, "bad-number"),
        ({"total_blocks": 0}, "bad-number"),
        ({"total_blocks": float("inf")}, "bad-number"),
        ({"strategy": "quantum"}, "bad-strategy"),
        ({"model": []}, "bad-model-knob"),
        ({"model": {"warp_speed": 9}}, "unknown-field"),
        ({"model": {"seed": 1.5}}, "bad-model-knob"),
        ({"model": {"seed": True}}, "bad-model-knob"),
        ({"model": {"adaptive": 1}}, "bad-model-knob"),
        ({"model": {"cpu_points": "12"}}, "bad-model-knob"),
        ({"model": {"max_blocks": float("nan")}}, "bad-model-knob"),
    ],
)
def test_invalid_requests_are_structured_400s(mutation, code):
    with pytest.raises(ProtocolError) as excinfo:
        parse_partition_request(_mutated(**mutation))
    assert excinfo.value.status == 400
    assert excinfo.value.code == code


def test_nested_spec_typo_reports_dotted_path():
    spec = to_jsonable(ig_icl_node())
    spec["gpus"][0]["gpu"]["peak_glfops"] = 345.6  # the classic transposition
    del spec["gpus"][0]["gpu"]["peak_gflops"]
    unknown = unknown_spec_fields(NodeSpec, spec)
    assert unknown == ["gpus[0].gpu.peak_glfops"]
    raw = json.dumps({"node": spec, "total_blocks": 100.0}).encode()
    with pytest.raises(ProtocolError) as excinfo:
        parse_partition_request(raw)
    assert excinfo.value.code == "unknown-field"
    assert "gpus[0].gpu.peak_glfops" in excinfo.value.message


def test_model_key_ignores_size_and_strategy():
    a = parse_partition_request(_mutated())
    b = parse_partition_request(_mutated(total_blocks=1600.0, strategy="cpm"))
    c = parse_partition_request(_mutated(model={"cpu_points": 5}))
    assert a.model_key() == b.model_key()
    assert a.answer_key() != b.answer_key()
    assert a.model_key() != c.model_key()


def test_a_warm_request_canonicalises_its_spec_once(
    run_service, body, monkeypatch
):
    calls = [0]
    original = protocol.node_key

    def counted(node):
        calls[0] += 1
        return original(node)

    monkeypatch.setattr(protocol, "node_key", counted)

    async def scenario(svc):
        await svc.handle("POST", "/partition", body(total_blocks=400.0))
        calls[0] = 0
        return await svc.handle("POST", "/partition", body(total_blocks=500.0))

    response = run_service(scenario)
    assert response.status == 200
    assert response.json["source"] == "warm"
    assert calls[0] == 1


def test_defaults_fill_missing_model_knobs():
    request = parse_partition_request(
        json.dumps({"preset": "cpu_only", "total_blocks": 10}).encode()
    )
    assert request.seed == 42
    assert request.gpu_version == 3
    assert request.adaptive is True
    assert request.strategy == "fpm"
    assert request.total_blocks == 10.0


# -------------------------------------------------------------- raw transport
def _http_request(body: bytes, target: str = "/partition",
                  method: str = "POST", extra: str = "") -> bytes:
    return (
        f"{method} {target} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


async def _read_response(reader) -> tuple[int, dict[str, str], bytes]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers, body


def test_tcp_keep_alive_serves_multiple_requests(run_server):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        try:
            request = _http_request(make_body())
            writer.write(request + request)  # pipeline two requests
            await writer.drain()
            first = await _read_response(reader)
            second = await _read_response(reader)
            return first, second
        finally:
            writer.close()
            await writer.wait_closed()

    (status1, headers1, body1), (status2, _, body2) = run_server(scenario)
    assert status1 == status2 == 200
    assert headers1["connection"] == "keep-alive"
    assert json.loads(body1)["source"] == "built"
    assert json.loads(body2)["source"] == "hot"


def test_tcp_connection_close_is_honoured(run_server):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(_http_request(b"", "/healthz", "GET",
                                   extra="Connection: close\r\n"))
        await writer.drain()
        status, headers, _ = await _read_response(reader)
        trailing = await reader.read()  # server closes after the response
        writer.close()
        return status, headers, trailing

    status, headers, trailing = run_server(scenario)
    assert status == 200
    assert headers["connection"] == "close"
    assert trailing == b""


def test_tcp_garbage_request_line_is_400(run_server):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(b"GARBAGE\r\n\r\n")
        await writer.drain()
        status, _, body = await _read_response(reader)
        writer.close()
        return status, body

    status, body = run_server(scenario)
    assert status == 400
    assert json.loads(body)["error"]["code"] == "bad-http"


def test_tcp_oversized_body_is_413(run_server):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(
            b"POST /partition HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: 99999999\r\n\r\n"
        )
        await writer.drain()
        status, _, body = await _read_response(reader)
        writer.close()
        return status, body

    status, body = run_server(scenario)
    assert status == 413
    assert json.loads(body)["error"]["code"] == "too-large"


def test_tcp_bad_content_length_is_400(run_server):
    async def scenario(server):
        reader, writer = await asyncio.open_connection(server.host, server.port)
        writer.write(
            b"POST /partition HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: banana\r\n\r\n"
        )
        await writer.drain()
        status, _, _ = await _read_response(reader)
        writer.close()
        return status

    assert run_server(scenario) == 400
