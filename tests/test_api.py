"""The ``repro.api`` facade: forwarding, keyword-only, no leftover shims."""

import inspect

import pytest

from repro import api
from repro.core.partition import (
    geometric_partition,
    partition_cpm,
    partition_fpm,
    partition_homogeneous,
)
from repro.experiments.fig6_process_times import Fig6Result
from repro.store import ResultStore, use_store


@pytest.fixture(scope="module")
def models():
    from repro.experiments.common import ExperimentConfig, make_app

    app = make_app(ExperimentConfig(seed=7, noise_sigma=0.01, fast=True))
    return list(app._models.values())


def _solve(models, strategy):
    """Allocations of ``total = 3000`` blocks through the api's Solver."""
    return list(api.Solver(strategy=strategy).solve(models, 3000.0).allocations)


class TestKeywordOnly:
    @pytest.mark.parametrize(
        "func", [api.build_models, api.run_report], ids=lambda f: f.__name__
    )
    def test_no_positional_arguments(self, func):
        params = inspect.signature(func).parameters.values()
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params)

    def test_run_experiment_takes_only_the_name_positionally(self):
        params = list(inspect.signature(api.run_experiment).parameters.values())
        assert params[0].name == "name"
        assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params[1:])


class TestForwarding:
    def test_build_models_matches_the_app_path(self, fast_config, tmp_path):
        from repro.experiments.common import make_app

        with use_store(ResultStore(tmp_path / "cache")):
            via_api = api.build_models(
                seed=fast_config.seed,
                noise_sigma=fast_config.noise_sigma,
                gpu_version=fast_config.gpu_version,
                max_blocks=fast_config.model_max_blocks,
                cpu_points=8,
                gpu_points=10,
                adaptive=False,
            )
            via_app = make_app(fast_config)._models
        assert set(via_api) == set(via_app)

    @pytest.mark.parametrize(
        ("strategy", "reference"),
        [("fpm", partition_fpm), ("geometric", geometric_partition)],
    )
    def test_partition_dispatch(self, models, strategy, reference):
        assert _solve(models, strategy) == reference(models, 3000.0)

    def test_partition_cpm_takes_constant_speeds(self):
        speeds = [10.0, 20.0, 30.0]
        assert _solve(speeds, "cpm") == partition_cpm(speeds, 3000.0)

    def test_partition_homogeneous(self, models):
        expected = partition_homogeneous(len(models), 3000.0)
        assert _solve(models, "homogeneous") == expected

    def test_partition_rejects_unknown_strategy(self, models):
        with pytest.raises(ValueError, match="unknown strategy"):
            _solve(models, "magic")

    def test_run_and_load_share_the_store(self, fast_config, tmp_path):
        store = ResultStore(tmp_path / "cache")
        assert api.load_cached_result("fig6", config=fast_config, store=store) is None
        ran = api.run_experiment("fig6", config=fast_config, store=store)
        assert isinstance(ran, Fig6Result)
        assert api.load_cached_result("fig6", config=fast_config, store=store) == ran


class TestDeprecationShims:
    """The removed shims stay removed: plain missing attributes."""

    def test_cli_has_no_other_hidden_attributes(self):
        import repro.cli as cli

        with pytest.raises(AttributeError):
            cli._NOT_A_THING

    @pytest.mark.parametrize(
        ("module", "name"),
        [
            ("repro.api", "partition"),
            ("repro.cli", "_EXPERIMENTS"),
            ("repro.experiments.report", "full_report"),
        ],
    )
    def test_removed_shims_are_gone(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)
