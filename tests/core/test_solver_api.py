"""The unified :class:`repro.core.solver.Solver` facade.

Options validation, strategy dispatch against the underlying algorithm
functions, hierarchical mode, immutability, and the ``repro.api`` module
serving no attribute it does not define.
"""

from __future__ import annotations

import math

import pytest

from repro.core.cpm import ConstantPerformanceModel
from repro.core.partition import (
    FPM_MAX_ITERS,
    FPM_TOLERANCE,
    geometric_partition,
    partition_cpm,
    partition_fpm,
)
from repro.core.solver import SolveResult, Solver, SolverOptions, solve
from repro.core.speed_function import SpeedFunction, SpeedSample


def _fn(pairs, bounded=False):
    return SpeedFunction(
        [SpeedSample(size=x, speed=s) for x, s in pairs], bounded=bounded
    )


@pytest.fixture()
def models():
    return [
        _fn([(10.0, 5.0), (100.0, 4.0)]),
        _fn([(10.0, 20.0), (100.0, 12.0)]),
    ]


# ---------------------------------------------------------------------------
# options
# ---------------------------------------------------------------------------


def test_options_defaults():
    opts = SolverOptions()
    assert opts.strategy == "fpm"
    assert opts.hierarchy is False
    assert opts.tolerance == FPM_TOLERANCE
    assert opts.max_iters == FPM_MAX_ITERS
    assert opts.aggregate_samples == 24


def test_homogeneous_is_normalised_to_even():
    assert SolverOptions(strategy="homogeneous").strategy == "even"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"strategy": "quantum"},
        {"tolerance": 0.0},
        {"tolerance": -1e-9},
        {"max_iters": 0},
        {"aggregate_samples": 0},
        {"hierarchy": True, "strategy": "cpm"},
    ],
)
def test_invalid_options_raise(kwargs):
    with pytest.raises((ValueError, TypeError)):
        SolverOptions(**kwargs)


def test_options_are_keyword_only():
    with pytest.raises(TypeError):
        SolverOptions("fpm")  # noqa: B026 - deliberate positional misuse


# ---------------------------------------------------------------------------
# solver construction & immutability
# ---------------------------------------------------------------------------


def test_solver_merges_keyword_overrides():
    solver = Solver(SolverOptions(strategy="cpm"), tolerance=1e-9)
    assert solver.options.strategy == "cpm"
    assert solver.options.tolerance == 1e-9


def test_solver_is_immutable():
    solver = Solver()
    with pytest.raises(AttributeError):
        solver.options = SolverOptions()


def test_with_options_derives_a_new_solver():
    base = Solver()
    variant = base.with_options(strategy="even")
    assert variant is not base
    assert variant.options.strategy == "even"
    assert base.options.strategy == "fpm"


# ---------------------------------------------------------------------------
# dispatch: each strategy is exactly the underlying algorithm
# ---------------------------------------------------------------------------


def test_fpm_dispatch(models):
    result = Solver().solve(models, 200.0)
    assert isinstance(result, SolveResult)
    assert result.strategy == "fpm"
    assert result.hierarchy is None
    assert list(result.allocations) == partition_fpm(models, 200.0)
    assert math.isclose(result.total, 200.0, rel_tol=1e-9)


def test_geometric_dispatch(models):
    result = Solver(strategy="geometric").solve(models, 200.0)
    assert list(result.allocations) == geometric_partition(models, 200.0)


def test_even_dispatch(models):
    result = Solver(strategy="even").solve(models, 200.0)
    assert result.allocations == (100.0, 100.0)


def test_cpm_dispatch_on_constants():
    constants = [
        ConstantPerformanceModel(name="a", speed=1.0),
        ConstantPerformanceModel(name="b", speed=3.0),
    ]
    result = Solver(strategy="cpm").solve(constants, 100.0)
    assert list(result.allocations) == partition_cpm(constants, 100.0)
    assert result.allocations == (25.0, 75.0)


def test_module_level_solve_is_the_one_shot_form(models):
    assert (
        solve(models, 200.0, strategy="even").allocations
        == Solver(strategy="even").solve(models, 200.0).allocations
    )


def test_as_dict_names_the_allocations(models):
    result = Solver(strategy="even").solve(models, 10.0)
    assert result.as_dict(["cpu", "gpu"]) == {"cpu": 5.0, "gpu": 5.0}
    with pytest.raises(ValueError):
        result.as_dict(["only-one"])


# ---------------------------------------------------------------------------
# hierarchical mode
# ---------------------------------------------------------------------------


def test_hierarchy_solve_carries_the_tree(models):
    solver = Solver(hierarchy=True, aggregate_samples=8)
    result = solver.solve([models, models], 1000)
    tree = result.hierarchy
    assert tree is not None
    assert sum(tree.node_allocations) == 1000
    assert tree.node_allocations == (500, 500)  # identical nodes split evenly
    assert result.allocations == tuple(float(a) for a in tree.flat)
    assert sum(result.allocations) == 1000.0


# ---------------------------------------------------------------------------
# repro.api attributes
# ---------------------------------------------------------------------------


def test_api_unknown_attribute_still_raises():
    import repro.api as api

    with pytest.raises(AttributeError):
        api.definitely_not_a_name
