"""The transport-independent heart of the partition service.

:class:`PartitionService` owns everything between "a request arrived"
and "here are the bytes of the response": admission, the three-level
cache (answer LRU → in-memory model-set LRU → the content-addressed
on-disk store), single-flight coalescing of concurrent FPM builds, the
worker thread pool the CPU-bound solves run on, and the observability
surface (`/metrics`, per-request spans, latency histograms).

The HTTP layer (:mod:`repro.service.http`) is a thin shell over
:meth:`PartitionService.handle`; tests and the load generator call
``handle`` directly — the *in-process server* — so the whole admission →
cache → solve → respond path is exercised without sockets.

Request lifecycle for ``POST /partition``::

    parse (protocol.py, strict 4xx on any defect)
      -> answer LRU hit?                      source="hot"
      -> model-set LRU hit?                   source="warm"   (solve only)
      -> build in flight for this model key?  source="coalesced" (await it)
      -> lead a single-flight build           source="built"
         (the build itself reads/writes the on-disk store, so a "built"
         response may still be disk-warm — the store.hit/miss counters
         say which)

Every response carries the model key, the source, and the solve's unit
allocations; every path records a ``service.request`` span and feeds the
``service.request_s`` / ``service.solve_s`` histograms.
"""

from __future__ import annotations

import asyncio
import json
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro import __version__, api
from repro.core.fpm import as_speed_function
from repro.obs import Tracer, set_tracer, wall_clock_s
from repro.platform.drift import DriftModel
from repro.service.protocol import (
    PartitionRequest,
    ProtocolError,
    parse_partition_request,
)
from repro.store import ResultStore, SingleFlight, use_store

#: Retained per-request spans; older ones are trimmed so a long-lived
#: daemon's trace memory stays bounded.
_MAX_REQUEST_SPANS = 1024

#: Histogram names the service feeds (exported via /metrics).
REQUEST_LATENCY = "service.request_s"
SOLVE_LATENCY = "service.solve_s"


@dataclass(frozen=True)
class ServiceResponse:
    """One HTTP-shaped reply: status, content type, body bytes."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: tuple[tuple[str, str], ...] = field(default=())

    @property
    def json(self) -> Any:
        """The body parsed as JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload: Any) -> ServiceResponse:
    body = json.dumps(payload, indent=1).encode("utf-8")
    return ServiceResponse(status=status, body=body)


class PartitionService:
    """Serves partition queries with batching, warm stores and metrics.

    Parameters
    ----------
    store:
        The content-addressed store backing FPM builds (None disables
        disk caching; the in-memory tiers still work).
    workers:
        Threads of the solve pool — the concurrency of *distinct* model
        builds and partition solves (requests themselves are unbounded:
        waiting on a coalesced build costs no thread).
    max_hot_models / max_hot_answers:
        Capacities of the in-memory LRUs for built model sets and for
        complete answers.
    tracer:
        The observability sink; the service installs it process-wide on
        :meth:`start` so store/measurement counters land in the same
        registry, and restores the previous tracer on :meth:`aclose`.
    """

    def __init__(
        self,
        *,
        store: ResultStore | None = None,
        workers: int = 4,
        max_hot_models: int = 128,
        max_hot_answers: int = 4096,
        tracer: Tracer | None = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.store = store
        self.tracer = tracer if tracer is not None else Tracer()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-solve"
        )
        self._workers = workers
        self._flight = SingleFlight()
        self._hot_models: OrderedDict[str, dict] = OrderedDict()
        self._hot_answers: OrderedDict[str, dict] = OrderedDict()
        # Warm solver states of flat FPM solves, keyed by model key: a
        # repeat solve over the same model digest (any workload total)
        # goes through Solver.resolve and skips re-stacking the batch
        # representation.  Exact mode keeps responses bit-identical to
        # the cold solve, so every cache tier above stays oblivious.
        self._warm_solves: OrderedDict[str, Any] = OrderedDict()
        self._max_hot_models = max_hot_models
        self._max_hot_answers = max_hot_answers
        self._previous_tracer: Any = None
        self._started_s: float | None = None

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> "PartitionService":
        """Install the service tracer and mark the start of uptime."""
        if self._started_s is None:
            self._previous_tracer = set_tracer(self.tracer)
            self._started_s = wall_clock_s()
        return self

    async def aclose(self) -> None:
        """Shut the solve pool down and restore the previous tracer."""
        if self._started_s is not None:
            set_tracer(self._previous_tracer)
            self._started_s = None
        self._executor.shutdown(wait=True, cancel_futures=True)

    async def __aenter__(self) -> "PartitionService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # ------------------------------------------------------------ dispatcher
    async def handle(
        self, method: str, target: str, body: bytes = b""
    ) -> ServiceResponse:
        """Route one request; the single entry point of every transport."""
        split = urlsplit(target)
        path = split.path
        started_s = wall_clock_s()
        try:
            if path == "/healthz":
                response = self._handle_healthz(method)
            elif path == "/metrics":
                response = self._handle_metrics(method, split.query)
            elif path == "/partition":
                response = await self._handle_partition(method, body)
            else:
                response = _json_response(
                    404,
                    {"error": {"code": "not-found", "message": f"no route {path!r}"}},
                )
        except ProtocolError as exc:
            self.tracer.counter("service.errors.client").add()
            response = _json_response(exc.status, exc.payload())
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            self.tracer.counter("service.errors.internal").add()
            response = _json_response(
                500,
                {"error": {"code": "internal", "message": f"{type(exc).__name__}: {exc}"}},
            )
        elapsed_s = wall_clock_s() - started_s
        self._observe_request(path, method, response.status, elapsed_s)
        return response

    # ------------------------------------------------------------- endpoints
    def _handle_healthz(self, method: str) -> ServiceResponse:
        _require_method(method, "GET")
        uptime_s = (
            wall_clock_s() - self._started_s if self._started_s is not None else 0.0
        )
        return _json_response(
            200,
            {
                "status": "ok",
                "version": __version__,
                "uptime_s": round(uptime_s, 3),
                "workers": self._workers,
                "hot_models": len(self._hot_models),
                "hot_answers": len(self._hot_answers),
                "inflight_builds": self._flight.inflight,
            },
        )

    def _handle_metrics(self, method: str, query: str) -> ServiceResponse:
        _require_method(method, "GET")
        fmt = parse_qs(query).get("format", ["json"])[-1]
        if fmt in ("prometheus", "prom", "text"):
            return ServiceResponse(
                status=200,
                body=self.prometheus_metrics().encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        if fmt != "json":
            raise ProtocolError(
                400, "bad-format", f"unknown metrics format {fmt!r}"
            )
        return _json_response(200, self.metrics_snapshot())

    async def _handle_partition(self, method: str, body: bytes) -> ServiceResponse:
        _require_method(method, "POST")
        request = parse_partition_request(body)
        solve_started_s = wall_clock_s()
        answer = await self._answer(request)
        self.tracer.histogram(SOLVE_LATENCY).observe(
            wall_clock_s() - solve_started_s
        )
        return _json_response(200, answer)

    # ------------------------------------------------------- the cache tiers
    async def _answer(self, request: PartitionRequest) -> dict:
        answer_key = request.answer_key()
        cached = self._lru_get(self._hot_answers, answer_key)
        if cached is not None:
            self.tracer.counter("service.partition.hot").add()
            return {**cached, "source": "hot"}

        model_key = request.model_key()
        models, source = await self._models_for(model_key, request)
        solver = api.Solver(request.solver_options())
        if request.hierarchy_nodes > 0:
            # a homogeneous cluster of identical nodes built from the
            # request's platform spec; the solver dedupes internally
            cluster = [list(models.values())] * request.hierarchy_nodes
            result = await self._run_solve(solver.solve, cluster, int(request.total_blocks))
            tree = result.hierarchy
            answer = {
                "allocation": {
                    f"node{i}.{name}": alloc
                    for i, node in enumerate(tree.unit_allocations)
                    for name, alloc in zip(models.keys(), node)
                },
                "node_allocations": list(tree.node_allocations),
                "nodes": request.hierarchy_nodes,
                "units": list(models.keys()),
                "total_blocks": request.total_blocks,
                "strategy": request.strategy,
                "model_key": model_key,
            }
        else:
            funcs = list(models.values())
            multipliers = None
            if request.drift_spec is not None:
                # Answer for the platform as it is at at_s: scale each
                # unit's speed function by its deterministic drift
                # multiplier before the solve.
                drift = DriftModel.from_spec(
                    request.drift_spec, seed=request.drift_seed
                )
                multipliers = dict(
                    zip(
                        models,
                        drift.speed_multipliers(
                            list(models), request.drift_at_s
                        ).tolist(),
                    )
                )
                funcs = [
                    as_speed_function(m).scaled(multipliers[name])
                    if multipliers[name] != 1.0
                    else m
                    for name, m in models.items()
                ]
                self.tracer.counter("service.partition.drifted").add()
            result = None
            # the warm chain caches the STATIONARY models' solver state;
            # drift-scaled functions must neither read nor seed it
            if request.strategy == "fpm" and multipliers is None:
                previous = self._lru_get(self._warm_solves, model_key)
                if previous is not None:
                    result = await self._run_solve(
                        solver.resolve, previous, total=request.total_blocks
                    )
                    self.tracer.counter("service.partition.warm_resolve").add()
            if result is None:
                result = await self._run_solve(
                    solver.solve, funcs, request.total_blocks
                )
            if (
                request.strategy == "fpm"
                and multipliers is None
                and result.warm is not None
            ):
                self._lru_put(
                    self._warm_solves, model_key, result, self._max_hot_models
                )
            answer = {
                "allocation": dict(zip(models.keys(), result.allocations)),
                "units": list(models.keys()),
                "total_blocks": request.total_blocks,
                "strategy": request.strategy,
                "model_key": model_key,
            }
            if multipliers is not None:
                answer["drift"] = {
                    "spec": request.drift_spec,
                    "at_s": request.drift_at_s,
                    "multipliers": multipliers,
                }
        self._lru_put(self._hot_answers, answer_key, answer, self._max_hot_answers)
        self.tracer.counter(f"service.partition.{source}").add()
        return {**answer, "source": source}

    async def _models_for(
        self, model_key: str, request: PartitionRequest
    ) -> tuple[dict, str]:
        """The request's model set, by name in sorted order, plus its source."""
        models = self._lru_get(self._hot_models, model_key)
        if models is not None:
            return models, "warm"
        follower = self._flight.pending(model_key)

        async def build() -> dict:
            built = await self._run_solve(self._build_models_sync, request)
            ordered = {name: built[name] for name in sorted(built)}
            self._lru_put(
                self._hot_models, model_key, ordered, self._max_hot_models
            )
            return ordered

        models = await self._flight.run(model_key, build)
        return models, "coalesced" if follower else "built"

    def _build_models_sync(self, request: PartitionRequest) -> dict:
        # Runs on a solve thread: bind the service's store in this
        # thread's context so the FPM builder caches through it.
        with use_store(self.store):
            return api.build_models(**request.model_kwargs())

    async def _run_solve(self, fn, *args, **kwargs):
        """Run a CPU-bound step on the solve pool."""
        loop = asyncio.get_running_loop()
        if kwargs:
            return await loop.run_in_executor(
                self._executor, lambda: fn(*args, **kwargs)
            )
        return await loop.run_in_executor(self._executor, fn, *args)

    @staticmethod
    def _lru_get(lru: OrderedDict, key: str):
        found = lru.get(key)
        if found is not None:
            lru.move_to_end(key)
        return found

    @staticmethod
    def _lru_put(lru: OrderedDict, key: str, value, capacity: int) -> None:
        lru[key] = value
        lru.move_to_end(key)
        while len(lru) > capacity:
            lru.popitem(last=False)

    # ------------------------------------------------------------ observability
    def _observe_request(
        self, path: str, method: str, status: int, elapsed_s: float
    ) -> None:
        tracer = self.tracer
        tracer.counter("service.requests").add()
        tracer.counter(f"service.status.{status // 100}xx").add()
        tracer.histogram(REQUEST_LATENCY).observe(elapsed_s)
        tracer.record(
            "service.request",
            category="service",
            wall_duration_s=elapsed_s,
            path=path,
            method=method,
            status=status,
        )
        roots = tracer.roots
        if len(roots) > _MAX_REQUEST_SPANS:
            del roots[: len(roots) - _MAX_REQUEST_SPANS // 2]

    def metrics_snapshot(self) -> dict:
        """Counters, gauges and histogram summaries as one JSON object."""
        metrics = self.tracer.metrics
        histograms = {}
        for name, hist in metrics.histograms.items():
            histograms[name] = {
                "count": hist.count,
                "sum": hist.sum,
                "mean": None if hist.count == 0 else hist.mean,
                "p50": None if hist.count == 0 else hist.percentile(50),
                "p90": None if hist.count == 0 else hist.percentile(90),
                "p99": None if hist.count == 0 else hist.percentile(99),
            }
        return {
            "counters": {
                name: counter.value for name, counter in metrics.counters.items()
            },
            "gauges": {
                name: gauge.last for name, gauge in metrics.gauges.items()
            },
            "histograms": histograms,
        }

    def prometheus_metrics(self) -> str:
        """The same registry in the Prometheus text exposition format."""
        lines: list[str] = []
        metrics = self.tracer.metrics
        for name, counter in metrics.counters.items():
            prom = _prom_name(name) + "_total"
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {counter.value}")
        for name, gauge in metrics.gauges.items():
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_float(gauge.last)}")
        for name, hist in metrics.histograms.items():
            prom = _prom_name(name)
            lines.append(f"# TYPE {prom} histogram")
            for le, count in hist.cumulative_buckets():
                label = "+Inf" if le == float("inf") else f"{le:.6g}"
                lines.append(f'{prom}_bucket{{le="{label}"}} {count}')
            lines.append(f"{prom}_sum {_prom_float(hist.sum)}")
            lines.append(f"{prom}_count {hist.count}")
        return "\n".join(lines) + "\n"


def _require_method(method: str, expected: str) -> None:
    if method.upper() != expected:
        raise ProtocolError(
            405, "method-not-allowed", f"use {expected}, not {method.upper()}"
        )


def _prom_name(name: str) -> str:
    return "repro_" + name.replace(".", "_").replace("-", "_")


def _prom_float(value: float) -> str:
    if value != value:  # NaN gauges (no observation yet)
        return "NaN"
    return f"{value:.10g}"
