"""Experiment orchestration: store-backed runs, optionally across processes.

This is the engine behind ``repro report --jobs N``.  It schedules
registered experiments (:mod:`repro.experiments.registry`) over a
process pool, replays frozen results from the active artifact store
(:mod:`repro.store`) when their inputs are unchanged, and records fresh
results for the next run.  Because every experiment derives all its
randomness from the :class:`~repro.experiments.common.ExperimentConfig`
seed, a parallel run is bit-identical to the sequential one — the pool
only changes wall-clock time, never results.

Workers share warm models through the store: each process opens the same
store root, so the first one to build an FPM persists it and the rest
replay it from disk (atomic writes make concurrent builders safe — the
losers overwrite with identical bytes).
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace
from typing import Any, Iterable, Sequence

from repro.experiments.common import ExperimentConfig, experiment_span
from repro.experiments.registry import get_experiment
from repro.obs import get_tracer
from repro.store import ResultStore, get_store, use_store
from repro.util.serde import (
    from_jsonable,
    qualified_type_name,
    resolve_type_name,
    to_jsonable,
)

#: The figures/tables the paper report renders, in print order.
REPORT_EXPERIMENTS = (
    "fig2",
    "fig3",
    "fig5",
    "table2",
    "table3",
    "fig6",
    "fig7",
)


class ExperimentError(RuntimeError):
    """An experiment failed; carries which one (workers lose that context)."""

    def __init__(self, name: str, cause: BaseException):
        self.experiment = name
        super().__init__(f"experiment {name!r} failed: {cause}")


@dataclass(frozen=True)
class FailedExperiment:
    """Sentinel result for an experiment that failed after its retries.

    ``run_experiments(..., on_error="collect")`` returns one of these in
    place of the result, so a degraded report can render the failure as a
    section instead of aborting its siblings.  Never cached.
    """

    name: str
    error: str


def result_key(name: str, config: ExperimentConfig) -> dict:
    """The store key of one experiment result: name + full configuration."""
    return {
        "artifact": "experiment-result",
        "experiment": name,
        "config": config.cache_key(),
    }


def _encode_result(result: Any) -> dict:
    """A frozen result as a self-describing JSON payload."""
    return {
        "result_type": qualified_type_name(type(result)),
        "result": to_jsonable(result),
    }


def _decode_result(payload: dict) -> Any:
    return from_jsonable(resolve_type_name(payload["result_type"]), payload["result"])


def load_cached_result(
    name: str, config: ExperimentConfig, *, store: ResultStore | None = None
) -> Any | None:
    """The frozen result of a previous identical run, or None.

    ``store`` defaults to the active store; with no store at all this is
    always a miss (caching off is the hermetic default).
    """
    store = get_store() if store is None else store
    if store is None:
        return None
    payload = store.get("result", result_key(name, config))
    if payload is None:
        return None
    return _decode_result(payload)


def run_experiment(
    name: str,
    config: ExperimentConfig = ExperimentConfig(),
    *,
    store: ResultStore | None = None,
) -> Any:
    """Run one registered experiment (or replay its frozen result).

    The run happens under the experiment's root span with ``store``
    installed as the active store, so model building inside the
    experiment shares the same cache; on a result hit the experiment
    body never executes and the span carries ``cache_hit=True``.
    """
    exp = get_experiment(name)
    store = get_store() if store is None else store
    with use_store(store):
        with experiment_span(name, config) as span:
            cached = load_cached_result(name, config, store=store)
            if cached is not None:
                if get_tracer().enabled:
                    span.set_attr("cache_hit", True)
                return cached
            result = exp.run(config)
        if store is not None:
            store.put("result", result_key(name, config), _encode_result(result))
    return result


def _worker(
    name: str, config: ExperimentConfig, store_root: str | None, salt: str | None
) -> tuple[str, dict]:
    """Pool entry point: run one experiment in a fresh process.

    The store is re-opened from its root (a ResultStore is cheap and the
    path plus salt pin it exactly); the result travels back as the same
    JSON payload the store records, so the parent decodes it with the
    identical code path a cache hit uses.
    """
    store = ResultStore(store_root, salt) if store_root is not None else None
    result = run_experiment(name, config, store=store)
    return name, _encode_result(result)


def _handle_failure(
    name: str, exc: BaseException, on_error: str, tracer
) -> FailedExperiment:
    """Final (post-retry) failure: collect a sentinel or raise wrapped."""
    if tracer.enabled:
        tracer.counter("report.failures").add(1)
    if on_error == "collect":
        return FailedExperiment(name=name, error=f"{type(exc).__name__}: {exc}")
    raise ExperimentError(name, exc) from exc


def run_experiments(
    names: Iterable[str],
    config: ExperimentConfig = ExperimentConfig(),
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    timeout_s: float | None = None,
    retries: int = 0,
    on_error: str = "raise",
) -> dict[str, Any]:
    """Run several experiments, optionally across a process pool.

    Returns ``{name: result}`` in the order of ``names``.  ``jobs <= 1``
    runs sequentially in-process; ``jobs > 1`` fans the experiments out
    over ``ProcessPoolExecutor`` workers that share the store on disk.
    Results are identical either way (each experiment is deterministic
    in ``config``), so ``--jobs`` is purely a wall-clock knob.

    Failure handling: each failed (or, pooled, timed-out) experiment is
    resubmitted up to ``retries`` times; a final failure either cancels
    the still-pending siblings and re-raises wrapped in
    :class:`ExperimentError` naming the experiment (``on_error="raise"``,
    the default) or yields a :class:`FailedExperiment` sentinel in the
    result mapping (``on_error="collect"``, the degraded-report mode).
    ``timeout_s`` bounds each pooled attempt; a timed-out worker process
    cannot be killed mid-task, so it is abandoned best-effort.
    """
    names = list(names)
    for name in names:
        get_experiment(name)  # fail fast on unknown names, before forking
    if on_error not in ("raise", "collect"):
        raise ValueError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout_s is not None and timeout_s <= 0:
        raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
    store = get_store() if store is None else store
    tracer = get_tracer()

    if jobs <= 1 or len(names) <= 1:
        out: dict[str, Any] = {}
        for name in names:
            for attempt in range(retries + 1):
                try:
                    out[name] = run_experiment(name, config, store=store)
                    break
                except Exception as exc:
                    if attempt < retries:
                        if tracer.enabled:
                            tracer.counter("report.retries").add(1)
                        continue
                    out[name] = _handle_failure(name, exc, on_error, tracer)
        return out

    root = str(store.root) if store is not None else None
    salt = store.salt if store is not None else None
    out = {}
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=jobs)
    try:
        futures = {
            name: pool.submit(_worker, name, config, root, salt) for name in names
        }
        for name in names:
            attempt = 0
            while True:
                try:
                    _, payload = futures[name].result(timeout=timeout_s)
                    out[name] = _decode_result(payload)
                    break
                except Exception as exc:
                    if attempt < retries:
                        attempt += 1
                        if tracer.enabled:
                            tracer.counter("report.retries").add(1)
                        futures[name] = pool.submit(
                            _worker, name, config, root, salt
                        )
                        continue
                    if on_error == "raise":
                        # stop scheduling the siblings before re-raising;
                        # already-running workers cannot be interrupted
                        for other in futures.values():
                            other.cancel()
                    out[name] = _handle_failure(name, exc, on_error, tracer)
                    break
    finally:
        # not the context manager: shutdown(wait=True) would block on a
        # hung (timed-out) worker long after its result was given up on
        pool.shutdown(wait=False, cancel_futures=True)
    return {n: out[n] for n in names}


def _shape_checks(results: dict[str, Any]) -> list:
    """The report's shape checks on the results of :data:`REPORT_EXPERIMENTS`."""
    from repro.experiments import report

    return report.shape_checks(*(results[name] for name in REPORT_EXPERIMENTS))


def run_full_report(
    config: ExperimentConfig = ExperimentConfig(),
    *,
    jobs: int = 1,
    store: ResultStore | None = None,
    timeout_s: float | None = None,
    retries: int = 1,
    experiments: Sequence[str] = REPORT_EXPERIMENTS,
) -> str:
    """The complete paper-vs-measured report (text), orchestrated.

    Runs the seven figure/table experiments (parallel when ``jobs > 1``,
    replayed from ``store`` when warm), renders each section with its
    registered formatter, and appends the shape checks.

    Degrades gracefully: an experiment that still fails after ``retries``
    resubmissions renders as a ``[FAILED <name>: <error>]`` section
    instead of aborting the others, and the shape checks are skipped
    (with a note naming the failures) when any of the seven report
    experiments is missing.
    """
    names = tuple(experiments)
    tracer = get_tracer()
    with tracer.span("report.full", category="experiment", jobs=jobs) as span:
        results = run_experiments(
            names,
            config,
            jobs=jobs,
            store=store,
            timeout_s=timeout_s,
            retries=retries,
            on_error="collect",
        )
        failed = [
            name for name in names if isinstance(results[name], FailedExperiment)
        ]
        if tracer.enabled:
            span.set_attr("experiments", len(results))
            span.set_attr("failures", len(failed))
        sections = []
        for name in names:
            result = results[name]
            if isinstance(result, FailedExperiment):
                sections.append(f"[FAILED {name}: {result.error}]")
            else:
                sections.append(get_experiment(name).format_result(result))
        checks = None
        if set(REPORT_EXPERIMENTS) <= set(names) and not any(
            isinstance(results[name], FailedExperiment)
            for name in REPORT_EXPERIMENTS
        ):
            checks = _shape_checks(results)
    if checks is None:
        sections.append(
            "Shape checks skipped: "
            f"{len(failed)} experiment(s) failed ({', '.join(failed) or 'n/a'})."
        )
    else:
        check_lines = ["Shape checks (paper claim vs measured):"]
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            check_lines.append(
                f"  [{status}] {c.name}: expected {c.expected}, measured {c.measured}"
            )
        sections.append("\n".join(check_lines))
    return "\n\n".join(sections)


def sweep_shape_checks(
    config: ExperimentConfig,
    seeds: Iterable[int],
    *,
    store: ResultStore | None = None,
) -> dict[str, list[int]]:
    """Every report shape check over many seeds: ``{check name: failing seeds}``.

    Runs the seven report experiments in process at each seed (everything
    else in ``config`` unchanged) and evaluates the shape checks, in the
    report's check order.  One seed answers pass/fail for that seed only;
    the sweep shows which claims hold across the seed distribution.
    """
    failing: dict[str, list[int]] = {}
    for seed in seeds:
        results = run_experiments(
            REPORT_EXPERIMENTS, replace(config, seed=seed), store=store
        )
        for check in _shape_checks(results):
            failing.setdefault(check.name, [])
            if not check.passed:
                failing[check.name].append(seed)
    return failing


def format_seed_sweep(seeds: Sequence[int], failing: dict[str, list[int]]) -> str:
    """The pass count and failing seeds of each shape check."""
    total = len(seeds)
    span = f"{seeds[0]}-{seeds[-1]}" if seeds else "none"
    lines = [f"Shape checks over seeds {span} ({total} seeds):"]
    for name, bad in failing.items():
        line = f"  {total - len(bad):>4}/{total}  {name}"
        if bad:
            line += f"  (fails on seeds {', '.join(map(str, bad))})"
        lines.append(line)
    return "\n".join(lines)
