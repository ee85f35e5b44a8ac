"""Unit and integration tests for the Jacobi application."""

import numpy as np
import pytest

from repro.app import jacobi
from repro.app.jacobi import (
    JacobiApp,
    StripPartition,
    reference_jacobi,
    run_partitioned_jacobi,
)
from repro.platform.presets import ig_icl_node

from tests.oracles import panel_loop as oracle


@pytest.fixture(scope="module")
def app():
    app = JacobiApp(ig_icl_node(), width=16384, seed=3, noise_sigma=0.01)
    app.build_models(max_rows=120_000.0, points=10)
    return app


class TestStripPartition:
    def test_bounds(self):
        p = StripPartition(total_rows=10, rows_per_unit=(4, 0, 6))
        assert p.bounds() == [(0, 4), (4, 4), (4, 10)]

    def test_rejects_wrong_sum(self):
        with pytest.raises(ValueError, match="cover"):
            StripPartition(total_rows=10, rows_per_unit=(4, 4))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StripPartition(total_rows=4, rows_per_unit=(5, -1))


class TestNumericCorrectness:
    def test_partitioned_equals_reference(self):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((60, 40))
        part = StripPartition(total_rows=60, rows_per_unit=(25, 18, 17))
        got = run_partitioned_jacobi(grid, part, iterations=7)
        ref = reference_jacobi(grid, 7)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_single_strip(self):
        rng = np.random.default_rng(2)
        grid = rng.standard_normal((20, 10))
        part = StripPartition(total_rows=20, rows_per_unit=(20,))
        got = run_partitioned_jacobi(grid, part, iterations=3)
        np.testing.assert_allclose(got, reference_jacobi(grid, 3))

    def test_empty_strips_allowed(self):
        rng = np.random.default_rng(3)
        grid = rng.standard_normal((30, 8))
        part = StripPartition(total_rows=30, rows_per_unit=(15, 0, 15))
        got = run_partitioned_jacobi(grid, part, iterations=4)
        np.testing.assert_allclose(got, reference_jacobi(grid, 4))

    def test_fpm_plan_is_numerically_correct(self, app):
        """The real planned strips compute the right answer."""
        plan = app.plan(96, "fpm")
        rng = np.random.default_rng(4)
        grid = rng.standard_normal((96, 32))
        got = run_partitioned_jacobi(grid, plan, iterations=3)
        np.testing.assert_allclose(got, reference_jacobi(grid, 3))


class TestPlanning:
    def test_fpm_pins_gpus_near_capacity(self, app):
        plan = app.plan(60_000, "fpm")
        alloc = dict(zip(app.unit_kernels().keys(), plan.rows_per_unit))
        gtx_cap = app.unit_kernels()["GeForce GTX680"].resident_capacity_rows
        assert 0.9 * gtx_cap <= alloc["GeForce GTX680"] <= 1.25 * gtx_cap

    def test_sockets_nearly_equal(self, app):
        """Bandwidth-bound stencil: S5 and S6 sockets get ~equal shares."""
        plan = app.plan(60_000, "fpm")
        alloc = dict(zip(app.unit_kernels().keys(), plan.rows_per_unit))
        s5 = alloc["socket0:c5"]
        s6 = alloc["socket2:c6"]
        assert abs(s5 - s6) / s6 < 0.1

    def test_unknown_strategy(self, app):
        with pytest.raises(ValueError):
            app.plan(100, "magic")

    def test_requires_models(self):
        bare = JacobiApp(ig_icl_node(), width=1024, seed=1)
        with pytest.raises(ValueError, match="no stencil models"):
            bare.plan(100, "fpm")


class TestExecution:
    def test_fpm_beats_homogeneous_and_cpm(self, app):
        _, fpm = app.run(60_000, 50, "fpm")
        _, cpm = app.run(60_000, 50, "cpm")
        _, hom = app.run(60_000, 50, "homogeneous")
        assert fpm.total_time < hom.total_time < cpm.total_time

    def test_fpm_nearly_balanced(self, app):
        _, res = app.run(60_000, 50, "fpm")
        assert res.imbalance < 1.3

    def test_total_scales_with_iterations(self, app):
        part = app.plan(30_000, "fpm")
        r10 = app.execute(part, 10)
        r20 = app.execute(part, 20)
        assert r20.total_time == pytest.approx(2 * r10.total_time)

    def test_halo_time_positive(self, app):
        _, res = app.run(30_000, 10, "fpm")
        assert res.halo_time > 0


class TestExecuteEvents:
    def test_engines_bit_identical(self, app, monkeypatch):
        part = app.plan(30_000, "fpm")
        vec = app.execute_events(part, 10)
        monkeypatch.setattr(
            jacobi, "simulate_panel_loop", oracle.simulate_panel_loop
        )
        sca = app.execute_events(part, 10)
        assert vec.total_time == sca.total_time
        assert vec.sweep_time_per_unit == sca.sweep_time_per_unit
        assert vec.halo_time == sca.halo_time

    def test_matches_analytic_execute(self, app):
        part = app.plan(30_000, "fpm")
        analytic = app.execute(part, 10)
        events = app.execute_events(part, 10)
        assert events.iterations == analytic.iterations
        assert events.total_time == pytest.approx(analytic.total_time)
        assert events.halo_time == pytest.approx(analytic.halo_time)
        for got, want in zip(
            events.sweep_time_per_unit, analytic.sweep_time_per_unit
        ):
            assert got == pytest.approx(want)

    def test_rejects_mismatched_partition(self, app):
        bad = StripPartition(total_rows=10, rows_per_unit=(5, 5))
        with pytest.raises(ValueError, match="strips"):
            app.execute_events(bad, 3)
