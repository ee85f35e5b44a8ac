"""service_zipf: independent clients asking the partition service for plans.

Open loop on one asyncio loop, calling ``PartitionService.handle``
directly (no sockets) with two solve threads.  Requests come from the
service's own load generator: 64 platform specs drawn zipf(1.2), each
with a ``total_blocks`` drawn from 229 sizes, so most requests are warm
solves over cached models rather than repeated answers.  Set-up makes
the head half of the pool disk-warm through a throwaway service on the
same store.  Phase A (``p50_ms``, ``p95_ms``) sends requests at 100/s
from that cold in-memory state; phase B (``warm_p50_ms``) sends the
following ones at 400/s over the now warm pool.  This is the only
workload that reaches the service and reads a warm store.

The service always records spans and counters on its own live tracer,
records each request as a detached root and builds on its pool threads,
so its load phases are not folded into layers.  The per-layer numbers
come from a traced replay of the first requests, one at a time, on a
fresh service whose tracer the benchmark owns: with one request in
flight, each pool-thread span lies inside the request that caused it.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs import Tracer
from repro.service.core import SOLVE_LATENCY, PartitionService, _json_response
from repro.service.loadgen import LoadgenConfig, build_schedule, spec_pool
from repro.service.protocol import parse_partition_request
from repro.store import ResultStore
from repro.util.serde import to_jsonable

from bench import stats
from bench.harness import Run, TimedStore, open_loop
from bench.trace import adopt_thread_roots, layer_span

NAME = "service_zipf"

SIZES = tuple(float(blocks) for blocks in range(400, 2000, 7))

#: Solve threads of every service, one per core of the reference machine.
WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    spec_pool: int
    rate_a: float  # requests per second in phase A
    rate_b: float
    min_a: int  # requests in phase A at least
    min_b: int
    decomposed: int  # requests timed step by step
    replayed: int  # requests replayed one at a time in the traced phase


FULL = Sizes(spec_pool=64, rate_a=100.0, rate_b=400.0, min_a=100, min_b=100,
             decomposed=300, replayed=200)
TINY = Sizes(spec_pool=8, rate_a=400.0, rate_b=400.0, min_a=100, min_b=20,
             decomposed=10, replayed=10)


@dataclass
class Context:
    seed: int
    sizes: Sizes
    workdir: Path
    warm: Path  # the store as set-up left it; every phase starts from a copy
    bodies: list[bytes]  # filled by measure
    responses: list  # phase A and B responses, in schedule order

    def store(self, name: str) -> TimedStore:
        """A fresh copy of the set-up store."""
        return TimedStore(shutil.copytree(self.warm, self.workdir / name))


def _config(seed: int, sizes: Sizes, requests: int) -> LoadgenConfig:
    return LoadgenConfig(
        seed=seed,
        clients=1,
        requests_per_client=requests,
        spec_pool=sizes.spec_pool,
        zipf_exponent=1.2,
        total_blocks_choices=SIZES,
    )


def setup(seed: int, sizes: Sizes, workdir: Path) -> Context:
    """Warm the zipf head of the spec pool into a fresh on-disk store."""
    config = _config(seed, sizes, 1)
    template = build_schedule(config)[0][0]
    head = [to_jsonable(spec) for spec in spec_pool(config)[: sizes.spec_pool // 2]]
    bodies = [json.dumps({**template, "node": node}).encode("utf-8") for node in head]
    store = ResultStore(workdir / "warm")

    async def warm() -> None:
        async with PartitionService(store=store, workers=WORKERS) as service:
            responses = await asyncio.gather(
                *(service.handle("POST", "/partition", body) for body in bodies)
            )
        if any(response.status != 200 for response in responses):
            raise RuntimeError("warming the store failed")

    asyncio.run(warm())
    return Context(seed, sizes, workdir, store.root, [], [])


def _check(run: Run, body: bytes, response, where: str) -> dict | None:
    """Check one response; returns its allocation record when it is 200."""
    if response.status != 200:
        run.check({"status 200": False}, where)
        return None
    answer = response.json
    total = json.loads(body)["total_blocks"]
    allocated = sum(answer["allocation"].values())
    run.check({"allocation sums to total_blocks": abs(allocated - total) <= 1e-6 * total}, where)
    return {"allocation": answer["allocation"], "total_blocks": total}


def measure(ctx: Context, seconds: float, run: Run) -> None:
    sizes = ctx.sizes
    count_a = max(sizes.min_a, round(sizes.rate_a * seconds * 2 / 3))
    count_b = max(sizes.min_b, round(sizes.rate_b * seconds / 3))
    schedule = build_schedule(_config(ctx.seed, sizes, count_a + count_b))[0]
    ctx.bodies = [json.dumps(request).encode("utf-8") for request in schedule]
    ctx.responses = [None] * len(ctx.bodies)
    store = ctx.store("load")

    async def load() -> tuple:
        async with PartitionService(store=store, workers=WORKERS) as service:

            def sender(offset: int):
                async def send(i: int) -> None:
                    ctx.responses[offset + i] = await service.handle(
                        "POST", "/partition", ctx.bodies[offset + i]
                    )

                return send

            phase_a = await open_loop(sender(0), count_a, sizes.rate_a)
            phase_b = await open_loop(sender(count_a), count_b, sizes.rate_b)
        return phase_a, phase_b, service.tracer.metrics

    phase_a, phase_b, metrics = asyncio.run(load())
    for failure in phase_a.failures + phase_b.failures:
        run.fail(failure)
    for i, (body, response) in enumerate(zip(ctx.bodies, ctx.responses)):
        if response is not None:
            record = _check(run, body, response, f"request {i}")
            run.digest(record)

    run.op_latencies(phase_a.latencies_s)
    run.latency("p95_ms", phase_a.latencies_s, 95.0)
    run.latency("warm_p50_ms", phase_b.latencies_s)
    run.metric("bench.gen_lag_max_ms", 1e3 * max(phase_a.lag_max_s, phase_b.lag_max_s), "ms")
    counters = metrics.counters
    for source in ("hot", "warm", "built", "coalesced"):
        found = counters.get(f"service.partition.{source}")
        run.metric(f"load.{source}", found.value if found else 0, "count")
    run.outputs["built"] = int(run.metrics["load.built"]["value"])
    run.outputs["requests"] = len(ctx.bodies)
    solve = metrics.histograms[SOLVE_LATENCY]
    run.metric("service.solve_ms", 1e3 * solve.percentile(50), "ms", solve.count)
    run.latency("store.get_ms", store.get_s)
    run.latency("store.put_ms", store.put_s)
    _decompose(ctx, run)


def _decompose(ctx: Context, run: Run) -> None:
    """Time parse, keys and encode of the first requests, step by step."""
    parse_s, key_s, encode_s = [], [], []
    pairs = zip(ctx.bodies[: ctx.sizes.decomposed], ctx.responses)
    for body, response in pairs:
        if response is None or response.status != 200:
            continue
        answer = response.json
        t0 = time.perf_counter()
        request = parse_partition_request(body)
        t1 = time.perf_counter()
        request.answer_key()
        request.model_key()
        t2 = time.perf_counter()
        _json_response(200, answer)
        t3 = time.perf_counter()
        parse_s.append(t1 - t0)
        key_s.append(t2 - t1)
        encode_s.append(t3 - t2)
    for name, samples in (("parse_us", parse_s), ("key_us", key_s), ("encode_us", encode_s)):
        run.metric(f"service.{name}", 1e6 * stats.percentile(samples, 50), "us", len(samples))


async def _replay(ctx: Context, tracer: Tracer | None) -> tuple[list, list, list]:
    """Send the first requests one at a time to a fresh service on a
    fresh copy of the set-up store, so the replay meets the cold state
    phase A met.

    With a ``tracer``, each request runs inside a ``bench.op`` span and
    the pool-thread roots it caused are nested under it, harvested after
    every request so the service's root trimming never applies.
    """
    op_s, roots, responses = [], [], []
    store = ctx.store("replay" if tracer is None else "replay-traced")
    async with PartitionService(
        store=store, workers=WORKERS, tracer=tracer
    ) as service:
        for body in ctx.bodies[: ctx.sizes.replayed]:
            start = time.perf_counter()
            with layer_span(tracer, "bench.op"):
                response = await service.handle("POST", "/partition", body)
            op_s.append(time.perf_counter() - start)
            responses.append(response)
            if tracer is not None:
                roots.extend(adopt_thread_roots(tracer.roots))
                tracer.roots.clear()
    return op_s, roots, responses


def traced(ctx: Context, run: Run) -> None:
    untraced_s, _, _ = asyncio.run(_replay(ctx, None))
    tracer = Tracer()
    op_s, roots, responses = asyncio.run(_replay(ctx, tracer))
    for i, (body, response) in enumerate(zip(ctx.bodies, responses)):
        _check(run, body, response, f"replayed request {i}")
    run.layers(roots, tracer.metrics, op_s, untraced_p50_s=statistics.median(untraced_s))
