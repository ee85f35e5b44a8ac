"""Orchestrator: registry-driven runs, result caching, process pools.

Covers the PR's acceptance criteria directly: the warm-cache report must
be at least 5x faster than the cold one (measured on the span tree), and
a parallel run must be bit-identical to the sequential one.
"""

import dataclasses

import pytest

from repro.experiments.common import ExperimentConfig
from repro.experiments.fig6_process_times import Fig6Result
from repro.experiments.orchestrator import (
    REPORT_EXPERIMENTS,
    ExperimentError,
    FailedExperiment,
    format_seed_sweep,
    load_cached_result,
    result_key,
    run_experiment,
    run_experiments,
    run_full_report,
    sweep_shape_checks,
)
from repro.experiments.registry import all_experiments, get_experiment
from repro.obs import Tracer, use_tracer
from repro.store import ResultStore, canonical_json, digest_key
from repro.util.serde import to_jsonable


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "cache")


class TestRegistry:
    def test_all_twenty_one_experiments_registered(self):
        names = [e.name for e in all_experiments()]
        assert len(names) == len(set(names)) == 21
        for required in REPORT_EXPERIMENTS + (
            "jacobi",
            "online_fpm",
            "fault_tolerance",
            "drift",
        ):
            assert required in names

    def test_entries_are_frozen_and_renderable(self):
        exp = get_experiment("fig6")
        assert dataclasses.is_dataclass(exp) and exp.__dataclass_params__.frozen
        assert exp.kind == "figure"
        assert exp.paper_refs == ("Fig. 6",)
        assert exp.module == "repro.experiments.fig6_process_times"

    def test_unknown_name_lists_the_catalogue(self):
        with pytest.raises(KeyError, match="fig2"):
            get_experiment("fig99")


class TestResultCaching:
    def test_typed_round_trip(self, fast_config, store):
        cold = run_experiment("fig6", fast_config, store=store)
        warm = run_experiment("fig6", fast_config, store=store)
        assert isinstance(warm, Fig6Result)
        assert warm == cold
        assert load_cached_result("fig6", fast_config, store=store) == cold

    def test_no_store_means_no_cache(self, fast_config):
        assert load_cached_result("fig6", fast_config) is None

    def test_fast_and_full_configs_never_collide(self):
        """Satellite regression: ``fast`` participates in the cache key."""
        full = ExperimentConfig(seed=7, noise_sigma=0.01, fast=False)
        fast = full.faster()
        assert fast != full
        for name in REPORT_EXPERIMENTS:
            assert digest_key("result", result_key(name, full)) != digest_key(
                "result", result_key(name, fast)
            )

    def test_cache_key_covers_every_config_field(self, fast_config):
        covered = set(fast_config.cache_key())
        declared = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert covered == declared

    def test_unknown_experiment_fails_before_running(self, fast_config, store):
        with pytest.raises(KeyError):
            run_experiments(["fig6", "fig99"], fast_config, store=store)


class TestParallelism:
    def test_jobs_are_bit_identical(self, fast_config, tmp_path):
        sequential = run_experiments(
            REPORT_EXPERIMENTS,
            fast_config,
            jobs=1,
            store=ResultStore(tmp_path / "seq"),
        )
        parallel = run_experiments(
            REPORT_EXPERIMENTS,
            fast_config,
            jobs=4,
            store=ResultStore(tmp_path / "par"),
        )
        assert list(sequential) == list(parallel) == list(REPORT_EXPERIMENTS)
        for name in REPORT_EXPERIMENTS:
            assert canonical_json(to_jsonable(sequential[name])) == canonical_json(
                to_jsonable(parallel[name])
            ), name

    def test_parallel_report_without_store(self, fast_config):
        # jobs > 1 must also work cache-less (results travel via pickle)
        results = run_experiments(("fig6", "fig7"), fast_config, jobs=2, store=None)
        assert isinstance(results["fig6"], Fig6Result)


class TestWarmReport:
    def test_warm_report_is_at_least_5x_faster(self, fast_config, store):
        """The tentpole's acceptance criterion, measured on the span tree."""
        cold_tracer = Tracer()
        with use_tracer(cold_tracer):
            cold_text = run_full_report(fast_config, store=store)
        warm_tracer = Tracer()
        with use_tracer(warm_tracer):
            warm_text = run_full_report(fast_config, store=store)
        assert warm_text == cold_text

        (cold_root,) = cold_tracer.roots
        (warm_root,) = warm_tracer.roots
        assert cold_root.name == warm_root.name == "report.full"
        assert cold_root.wall_duration_s >= 5.0 * warm_root.wall_duration_s

        # every experiment replayed from the store, none re-measured
        metrics = warm_tracer.metrics.snapshot()
        assert metrics["store.hit"] == len(REPORT_EXPERIMENTS)
        assert "store.miss" not in metrics
        experiment_spans = [
            s for s in warm_root.children if s.name.startswith("experiment.")
        ]
        assert len(experiment_spans) == len(REPORT_EXPERIMENTS)
        assert all(s.attrs.get("cache_hit") for s in experiment_spans)


@pytest.fixture()
def boom_experiment():
    """A registered experiment that always fails (removed on teardown)."""
    from repro.experiments import registry
    from repro.experiments.registry import register_experiment

    def boom_run(config):
        raise RuntimeError("kaboom")

    @register_experiment("boom", run=boom_run, kind="ablation")
    def boom_fmt(result):  # pragma: no cover - never rendered
        return "never"

    yield "boom"
    registry._REGISTRY.pop("boom", None)


@pytest.fixture()
def broken_fig2():
    """Swap fig2's run for a failing one (restored on teardown)."""
    from repro.experiments import registry

    original = get_experiment("fig2")

    def fail_run(config):
        raise RuntimeError("injected fig2 failure")

    registry._REGISTRY["fig2"] = dataclasses.replace(original, run=fail_run)
    yield "fig2"
    registry._REGISTRY["fig2"] = original


class TestFailureHandling:
    def test_raise_mode_wraps_the_experiment_name(self, fast_config, boom_experiment):
        with pytest.raises(ExperimentError, match="'boom' failed: kaboom") as err:
            run_experiments(["boom"], fast_config, store=None)
        assert err.value.experiment == "boom"
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_collect_mode_yields_a_sentinel(self, fast_config, boom_experiment):
        results = run_experiments(
            ["boom"], fast_config, store=None, on_error="collect"
        )
        assert results["boom"] == FailedExperiment(
            name="boom", error="RuntimeError: kaboom"
        )

    def test_retry_reruns_and_counts(self, fast_config):
        from repro.experiments import registry
        from repro.experiments.registry import register_experiment

        attempts = []

        def flaky_run(config):
            attempts.append(1)
            if len(attempts) < 2:
                raise RuntimeError("transient")
            return Fig6Result  # any picklable sentinel

        @register_experiment("flaky", run=flaky_run, kind="ablation")
        def flaky_fmt(result):  # pragma: no cover
            return "ok"

        try:
            tracer = Tracer()
            with use_tracer(tracer):
                results = run_experiments(
                    ["flaky"], fast_config, store=None, retries=1
                )
            assert results["flaky"] is Fig6Result
            assert len(attempts) == 2
            assert tracer.metrics.snapshot()["report.retries"] == 1
        finally:
            registry._REGISTRY.pop("flaky", None)

    def test_pooled_failure_cancels_and_names_the_experiment(
        self, fast_config, boom_experiment
    ):
        with pytest.raises(ExperimentError, match="boom"):
            run_experiments(["fig6", "boom"], fast_config, jobs=2, store=None)

    def test_invalid_arguments_rejected(self, fast_config):
        with pytest.raises(ValueError, match="on_error"):
            run_experiments(["fig6"], fast_config, on_error="explode")
        with pytest.raises(ValueError, match="retries"):
            run_experiments(["fig6"], fast_config, retries=-1)
        with pytest.raises(ValueError, match="timeout_s"):
            run_experiments(["fig6"], fast_config, timeout_s=0.0)


class TestDegradedReport:
    def test_failed_section_renders_and_checks_are_skipped(
        self, fast_config, store, broken_fig2
    ):
        text = run_full_report(fast_config, store=store, retries=0)
        assert "[FAILED fig2: RuntimeError: injected fig2 failure]" in text
        assert "Shape checks skipped: 1 experiment(s) failed (fig2)." in text
        assert "Shape checks (paper claim vs measured):" not in text
        # the other six sections render normally
        assert text.count("[FAILED") == 1

    def test_pooled_degraded_report_matches_sequential(
        self, fast_config, tmp_path, broken_fig2
    ):
        sequential = run_full_report(
            fast_config, jobs=1, store=ResultStore(tmp_path / "a"), retries=0
        )
        pooled = run_full_report(
            fast_config, jobs=4, store=ResultStore(tmp_path / "b"), retries=0
        )
        assert pooled == sequential

    def test_failure_never_cached(self, fast_config, store, broken_fig2):
        run_full_report(fast_config, store=store, retries=0)
        assert load_cached_result("fig2", fast_config, store=store) is None


@pytest.mark.nightly
def test_full_resolution_parallel_report(tmp_path):
    """Nightly: the paper-resolution report through a 4-worker pool."""
    config = ExperimentConfig()
    store = ResultStore(tmp_path / "cache")
    text = run_full_report(config, jobs=4, store=store)
    assert "[FAIL]" not in text
    assert run_full_report(config, jobs=1, store=ResultStore(tmp_path / "b")) == text


class TestSeedSweep:
    def test_sweep_matches_the_per_seed_report_checks(self, fast_config):
        from repro.experiments import report

        failing = sweep_shape_checks(fast_config, range(2))
        for seed in range(2):
            results = run_experiments(
                REPORT_EXPERIMENTS, dataclasses.replace(fast_config, seed=seed)
            )
            checks = report.shape_checks(*(results[n] for n in REPORT_EXPERIMENTS))
            assert list(failing) == [c.name for c in checks]
            for c in checks:
                assert (seed in failing[c.name]) == (not c.passed)

    def test_format_names_pass_counts_and_failing_seeds(self):
        text = format_seed_sweep(range(3, 6), {"A": [], "B": [4]})
        assert text.splitlines() == [
            "Shape checks over seeds 3-5 (3 seeds):",
            "     3/3  A",
            "     2/3  B  (fails on seeds 4)",
        ]

    def test_cli_seeds_flag(self, capsys):
        from repro.cli import main

        assert main(["report", "--seeds", "0:1", "--fast", "--no-cache"]) == 0
        assert capsys.readouterr().out.startswith("Shape checks over seeds 0-0 (1 seeds):")
        for bad in (["report", "--seeds", "3:3"], ["fig2", "--seeds", "0:2"]):
            with pytest.raises(SystemExit):
                main(bad)
