"""Warm-started incremental re-solves (:meth:`Solver.resolve`).

The contract under test is *bit-identity*: an exact-mode resolve over a
perturbed/shrunk model set must return exactly the floats a cold
:meth:`Solver.solve` over the updated model list would — same batch
kernels, same Illinois branch decisions.  Searched with hypothesis over
random model sets and perturbations, plus directed coverage of
:meth:`BatchSpeedModels.with_updates` (incremental clone vs full
restack), bracket mode, no-ops, chained resolves, error paths, and the
``partition.resolve.*`` metrics.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import BatchSpeedModels
from repro.core.partition import (
    FpmSolveState,
    partition_fpm,
    partition_fpm_with_state,
    resolve_fpm,
)
from repro.core.solver import Solver, SolverOptions
from repro.core.speed_function import SpeedFunction, SpeedSample
from repro.obs import Tracer, use_tracer

from tests.core.test_partition_properties import (
    partition_problem,
    strict_speed_function,
)


def _fn(pairs, bounded=False):
    return SpeedFunction(
        [SpeedSample(size=x, speed=s) for x, s in pairs], bounded=bounded
    )


def _models():
    return [
        _fn([(10.0, 5.0), (100.0, 4.0)]),
        _fn([(10.0, 20.0), (100.0, 12.0)]),
        _fn([(5.0, 8.0), (50.0, 10.0), (200.0, 6.0)]),
    ]


def _batch_arrays_equal(a: BatchSpeedModels, b: BatchSpeedModels) -> bool:
    """Kernel-visible state of two batches is bitwise equal."""
    ta = a.times_at(np.minimum(100.0, a.caps))
    tb = b.times_at(np.minimum(100.0, b.caps))
    return (
        a.count == b.count
        and np.array_equal(a.caps, b.caps)
        and np.array_equal(ta, tb)
    )


# ---------------------------------------------------------------------------
# BatchSpeedModels.with_updates
# ---------------------------------------------------------------------------


class TestWithUpdates:
    def test_noop_returns_self(self):
        batch = BatchSpeedModels(_models())
        assert batch.with_updates() is batch
        assert batch.with_updates({}, ()) is batch

    def test_replacement_matches_fresh_batch(self):
        models = _models()
        batch = BatchSpeedModels(models)
        new_fn = _fn([(10.0, 7.0), (100.0, 5.0)])
        updated = batch.with_updates({1: new_fn})
        fresh = BatchSpeedModels([models[0], new_fn, models[2]])
        assert _batch_arrays_equal(updated, fresh)
        for t in (0.5, 3.0, 25.0):
            assert np.array_equal(
                updated.allocations_at(t), fresh.allocations_at(t)
            )

    def test_drop_matches_fresh_batch(self):
        models = _models()
        batch = BatchSpeedModels(models)
        updated = batch.with_updates(dropped=[1])
        fresh = BatchSpeedModels([models[0], models[2]])
        assert _batch_arrays_equal(updated, fresh)
        for t in (0.5, 3.0, 25.0):
            assert np.array_equal(
                updated.allocations_at(t), fresh.allocations_at(t)
            )

    def test_replace_and_drop_together(self):
        models = _models()
        batch = BatchSpeedModels(models)
        new_fn = _fn([(1.0, 2.0), (10.0, 3.0)], bounded=True)
        updated = batch.with_updates({0: new_fn}, dropped=[2])
        fresh = BatchSpeedModels([new_fn, models[1]])
        assert _batch_arrays_equal(updated, fresh)

    def test_oversized_replacement_falls_back_to_full_rebuild(self):
        models = _models()  # padding fits <= 3 samples
        batch = BatchSpeedModels(models)
        wide = _fn([(float(x), 5.0 + x / 10.0) for x in range(1, 9)])
        updated = batch.with_updates({0: wide})
        fresh = BatchSpeedModels([wide, models[1], models[2]])
        assert _batch_arrays_equal(updated, fresh)

    def test_parent_is_not_mutated(self):
        models = _models()
        batch = BatchSpeedModels(models)
        before = batch.times_at(np.minimum(100.0, batch.caps)).copy()
        batch.with_updates({0: _fn([(10.0, 1.0)])}, dropped=[2])
        assert np.array_equal(
            batch.times_at(np.minimum(100.0, batch.caps)), before
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"replacements": {5: None}},
            {"replacements": {-1: None}},
            {"dropped": [5]},
            {"dropped": [-1]},
            {"dropped": [0, 1, 2]},
        ],
    )
    def test_invalid_indices_raise(self, kwargs):
        batch = BatchSpeedModels(_models())
        reps = kwargs.get("replacements")
        if reps:
            reps = {i: _fn([(10.0, 1.0)]) for i in reps}
        with pytest.raises(ValueError):
            batch.with_updates(reps, kwargs.get("dropped", ()))

    def test_replace_and_drop_same_index_raises(self):
        batch = BatchSpeedModels(_models())
        with pytest.raises(ValueError, match="both replaced and dropped"):
            batch.with_updates({1: _fn([(10.0, 1.0)])}, dropped=[1])


# ---------------------------------------------------------------------------
# exact-mode resolve == cold solve, bitwise
# ---------------------------------------------------------------------------


def _perturb(fn: SpeedFunction, factor: float) -> SpeedFunction:
    return SpeedFunction(
        [
            SpeedSample(size=s.size, speed=s.speed * factor)
            for s in fn.samples
        ],
        bounded=fn.bounded,
    )


class TestResolveExactBitIdentity:
    @pytest.mark.property
    @given(
        problem=partition_problem(strict=True),
        factors=st.lists(
            st.floats(min_value=0.5, max_value=2.0), min_size=1, max_size=6
        ),
    )
    @settings(deadline=None)
    def test_perturbations(self, problem, factors):
        fns, total = problem
        _, state = partition_fpm_with_state(fns, total)
        changed = {
            i % len(fns): _perturb(fns[i % len(fns)], f)
            for i, f in enumerate(factors)
        }
        updated = list(fns)
        for i, fn in changed.items():
            updated[i] = fn
        warm, _ = resolve_fpm(state, replacements=changed)
        assert warm == partition_fpm(updated, total)

    @pytest.mark.property
    @given(
        fns=st.lists(
            strict_speed_function(bounded=False), min_size=2, max_size=6
        ),
        total=st.floats(min_value=1.0, max_value=5000.0),
        data=st.data(),
    )
    @settings(deadline=None)
    def test_drops(self, fns, total, data):
        _, state = partition_fpm_with_state(fns, total)
        dropped = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(fns) - 1),
                min_size=1,
                max_size=len(fns) - 1,
                unique=True,
            )
        )
        survivors = [fn for i, fn in enumerate(fns) if i not in set(dropped)]
        warm, _ = resolve_fpm(state, dropped=dropped)
        assert warm == partition_fpm(survivors, total)

    @pytest.mark.property
    @given(problem=partition_problem(strict=True))
    @settings(deadline=None)
    def test_noop_reproduces_cold_solve(self, problem):
        fns, total = problem
        cold, state = partition_fpm_with_state(fns, total)
        warm, _ = resolve_fpm(state)
        assert warm == cold

    def test_total_override(self):
        models = _models()
        _, state = partition_fpm_with_state(models, 200.0)
        warm, _ = resolve_fpm(state, total=350.0)
        assert warm == partition_fpm(models, 350.0)

    def test_chained_resolves_stay_bit_identical(self):
        models = _models()
        _, state = partition_fpm_with_state(models, 200.0)
        faster = _perturb(models[0], 1.5)
        allocs1, state = resolve_fpm(state, replacements={0: faster})
        assert allocs1 == partition_fpm(
            [faster, models[1], models[2]], 200.0
        )
        allocs2, state = resolve_fpm(state, dropped=[2])
        assert allocs2 == partition_fpm([faster, models[1]], 200.0)
        assert state.processors == 2

    def test_capacity_check_applies_to_updated_batch(self):
        small = _fn([(1.0, 1.0), (10.0, 1.0)], bounded=True)
        models = [_fn([(10.0, 5.0), (100.0, 4.0)]), small]
        _, state = partition_fpm_with_state(models, 15.0)
        with pytest.raises(ValueError):
            resolve_fpm(state, dropped=[0])


class TestResolveBracketMode:
    def test_close_to_cold_solve(self):
        models = _models()
        _, state = partition_fpm_with_state(models, 200.0)
        changed = {1: _perturb(models[1], 1.02)}
        warm, _ = resolve_fpm(state, replacements=changed, mode="bracket")
        cold = partition_fpm([models[0], changed[1], models[2]], 200.0)
        assert np.allclose(warm, cold, rtol=1e-6)
        assert math.isclose(sum(warm), 200.0, rel_tol=1e-9)

    def test_unknown_mode_raises(self):
        _, state = partition_fpm_with_state(_models(), 200.0)
        with pytest.raises(ValueError, match="resolve mode"):
            resolve_fpm(state, mode="warmish")


# ---------------------------------------------------------------------------
# Solver.resolve facade
# ---------------------------------------------------------------------------


class TestSolverResolve:
    def test_matches_cold_solve(self):
        models = _models()
        solver = Solver()
        previous = solver.solve(models, 200.0)
        assert previous.warm is not None
        faster = _perturb(models[1], 1.3)
        result = solver.resolve(previous, changed_models={1: faster})
        cold = solver.solve([models[0], faster, models[2]], 200.0)
        assert result.allocations == cold.allocations
        assert result.strategy == "fpm"
        assert result.warm is not None  # resolves chain

    def test_drop_matches_cold_solve(self):
        models = _models()
        solver = Solver()
        previous = solver.solve(models, 200.0)
        result = solver.resolve(previous, dropped=[0])
        cold = solver.solve(models[1:], 200.0)
        assert result.allocations == cold.allocations

    def test_requires_flat_fpm_strategy(self):
        models = _models()
        previous = Solver().solve(models, 200.0)
        with pytest.raises(ValueError, match="flat strategy='fpm'"):
            Solver(strategy="even").resolve(previous)
        with pytest.raises(ValueError, match="flat strategy='fpm'"):
            Solver(hierarchy=True).resolve(previous)

    def test_requires_warm_state(self):
        models = _models()
        previous = Solver(strategy="even").solve(models, 200.0)
        assert previous.warm is None
        with pytest.raises(ValueError, match="no warm state"):
            Solver().resolve(previous)

    def test_non_fpm_results_carry_no_warm_state(self):
        models = _models()
        for strategy in ("even", "geometric"):
            result = Solver(strategy=strategy).solve(models, 200.0)
            assert result.warm is None

    def test_warm_state_excluded_from_equality(self):
        models = _models()
        a = Solver().solve(models, 200.0)
        b = Solver(SolverOptions()).solve(models, 200.0)
        assert a == b  # warm states are distinct objects; compare=False

    def test_state_exposes_processors(self):
        previous = Solver().solve(_models(), 200.0)
        assert isinstance(previous.warm, FpmSolveState)
        assert previous.warm.processors == 3


# ---------------------------------------------------------------------------
# partition.resolve.* metrics
# ---------------------------------------------------------------------------


class TestResolveMetrics:
    def test_counters_and_histogram(self):
        models = _models()
        tracer = Tracer()
        with use_tracer(tracer):
            _, state = partition_fpm_with_state(models, 200.0)
            resolve_fpm(state, replacements={0: _perturb(models[0], 1.1)})
            resolve_fpm(state, dropped=[1, 2])
            resolve_fpm(state)  # no-op
            resolve_fpm(state, mode="bracket")
        counters = tracer.metrics.counters
        assert counters["partition.resolve.solves"].value == 4
        assert counters["partition.resolve.exact"].value == 3
        assert counters["partition.resolve.bracket"].value == 1
        assert counters["partition.resolve.noop"].value == 2
        # the replacement stacks one row; the drop-only update stacks none
        assert counters["partition.resolve.rows_rebuilt"].value == 1
        assert counters["partition.resolve.rows_dropped"].value == 2
        hist = tracer.metrics.histograms["partition.resolve.evaluations"]
        assert hist.count == 4

    def test_wide_replacement_counts_the_whole_rebuilt_batch(self):
        models = _models()
        wide = _fn([(4.0, 3.0), (20.0, 5.0), (60.0, 6.0), (150.0, 5.5), (300.0, 4.0)])
        tracer = Tracer()
        with use_tracer(tracer):
            _, state = partition_fpm_with_state(models, 200.0)
            assert not state.batch.holds([wide])
            _, after = resolve_fpm(state, replacements={0: wide}, dropped=[1])
        counters = tracer.metrics.counters
        # the fallback restacks every surviving model, not just the wide one
        assert counters["partition.resolve.rows_rebuilt"].value == after.batch.count == 2
        assert counters["partition.resolve.rows_dropped"].value == 1

    def test_resolve_span_emitted(self):
        tracer = Tracer()
        with use_tracer(tracer):
            _, state = partition_fpm_with_state(_models(), 200.0)
            resolve_fpm(state)
        names = [s.name for s in tracer.roots]
        assert "partition.resolve" in names
