"""Integration tests for the full application pipeline."""

import pytest

from repro.app import execution
from repro.app.matmul import HybridMatMul, PartitioningStrategy
from repro.app.verify import verify_partition_numerically
from repro.core.serialization import load_models, save_models

from tests.oracles import panel_loop as oracle


@pytest.fixture(scope="module")
def app(node):
    app = HybridMatMul(node, seed=11, noise_sigma=0.01)
    app.build_models(max_blocks=5200.0, cpu_points=8, gpu_points=10, adaptive=False)
    return app


class TestComputeUnits:
    def test_paper_unit_set(self, app):
        units = app.compute_units()
        kinds = [u.kind for u in units]
        assert kinds.count("gpu") == 2
        assert kinds.count("socket") == 4
        socket_sizes = sorted(
            len(u.member_ranks) for u in units if u.kind == "socket"
        )
        assert socket_sizes == [5, 5, 6, 6]  # 2 x S5, 2 x S6

    def test_units_cover_all_ranks(self, app):
        ranks = [r for u in app.compute_units() for r in u.member_ranks]
        assert sorted(ranks) == list(range(24))


class TestPlan:
    def test_fpm_plan_sums(self, app):
        plan = app.plan(40, PartitioningStrategy.FPM)
        assert sum(plan.unit_allocations) == 1600
        assert sum(plan.process_allocations) == 1600
        plan.partition.validate_tiling()

    def test_fpm_favours_gtx680(self, app):
        plan = app.plan(40, PartitioningStrategy.FPM)
        g1 = plan.allocation_of("GeForce GTX680")
        others = [
            a
            for u, a in zip(plan.units, plan.unit_allocations)
            if u.name != "GeForce GTX680"
        ]
        assert g1 > max(others)

    def test_cpm_overloads_gpu_at_scale(self, app):
        """Table III: CPM's G1 share exceeds FPM's for n >= 50."""
        for n in (50, 60, 70):
            cpm = app.plan(n, PartitioningStrategy.CPM)
            fpm = app.plan(n, PartitioningStrategy.FPM)
            assert cpm.allocation_of("GeForce GTX680") > fpm.allocation_of(
                "GeForce GTX680"
            )

    def test_homogeneous_plan_even(self, app):
        plan = app.plan(24, PartitioningStrategy.HOMOGENEOUS)
        assert set(plan.process_allocations) == {24}

    def test_socket_share_split_evenly(self, app):
        plan = app.plan(60, PartitioningStrategy.FPM)
        for unit, alloc in zip(plan.units, plan.unit_allocations):
            if unit.kind == "socket":
                member_allocs = [
                    plan.process_allocations[r] for r in unit.member_ranks
                ]
                assert max(member_allocs) - min(member_allocs) <= 1
                assert sum(member_allocs) == alloc

    def test_strategy_accepts_strings(self, app):
        plan = app.plan(20, "fpm")
        assert plan.strategy is PartitioningStrategy.FPM

    def test_unknown_strategy_rejected(self, app):
        with pytest.raises(ValueError):
            app.plan(20, "magic")

    def test_models_required(self, node):
        bare = HybridMatMul(node, seed=1)
        with pytest.raises(ValueError, match="no models"):
            bare.plan(20, PartitioningStrategy.FPM)


class TestRealise:
    """Every plan is built by one realise step with one set of checks."""

    def test_duplicate_unit_rejected_by_name(self, app):
        unit = app.compute_units()[0]
        with pytest.raises(ValueError, match=f"{unit.name!r} appears more"):
            app.plan_for_units(40, [unit, unit], [800, 800])

    @pytest.mark.parametrize(
        "allocs, message",
        [
            ([1600, 0], "2 allocations for 6 units"),
            ([300] * 5 + [99], "sum to 1599, expected 1600"),
        ],
    )
    def test_allocations_checked(self, app, allocs, message):
        with pytest.raises(ValueError, match=message):
            app.plan_from_unit_allocations(40, allocs)

    def test_unknown_unit_rejected(self, app, cpu_node):
        stranger = HybridMatMul(cpu_node, seed=1).compute_units()[0]
        with pytest.raises(ValueError, match="not on this node"):
            app.plan_for_units(40, [stranger], [1600])

    def test_all_three_entry_points_agree(self, app):
        plan = app.plan(40)
        units = app.compute_units()
        assert app.plan_from_unit_allocations(40, list(plan.unit_allocations)) == plan
        assert app.plan_for_units(40, units, list(plan.unit_allocations)) == plan


class TestExecute:
    def test_fpm_beats_alternatives_at_scale(self, app):
        _, fpm = app.run(60, PartitioningStrategy.FPM)
        _, cpm = app.run(60, PartitioningStrategy.CPM)
        _, hom = app.run(60, PartitioningStrategy.HOMOGENEOUS)
        assert fpm.total_time < cpm.total_time < hom.total_time

    def test_fpm_flattens_computation(self, app):
        _, fpm = app.run(60, PartitioningStrategy.FPM)
        _, cpm = app.run(60, PartitioningStrategy.CPM)
        assert fpm.computation_imbalance < cpm.computation_imbalance

    def test_fpm_plan_is_numerically_correct(self, app):
        """The planned geometry really computes C = A @ B."""
        plan = app.plan(12, PartitioningStrategy.FPM)
        verify_partition_numerically(plan.partition, block_size=3, seed=0)


class TestExecuteEvents:
    def test_engines_bit_identical(self, app, monkeypatch):
        plan = app.plan(24, PartitioningStrategy.FPM)
        vec = app.execute_events(plan, panels=6)
        monkeypatch.setattr(
            execution, "simulate_panel_loop", oracle.simulate_panel_loop
        )
        sca = app.execute_events(plan, panels=6)
        assert vec.total_time == sca.total_time
        assert vec.computation_time == sca.computation_time
        assert vec.communication_time == sca.communication_time

    def test_matches_analytic_execute(self, app):
        plan = app.plan(24, PartitioningStrategy.FPM)
        analytic = app.execute(plan)
        events = app.execute_events(plan)
        assert events.n == analytic.n
        assert events.areas == analytic.areas
        assert events.total_time == pytest.approx(analytic.total_time)
        assert events.iteration_time == pytest.approx(analytic.iteration_time)
        assert events.communication_time == pytest.approx(
            analytic.communication_time
        )


class TestModelPersistence:
    def test_models_round_trip_through_json(self, app, node, tmp_path):
        path = tmp_path / "models.json"
        units = app.compute_units()
        save_models(path, app.models_for(units))
        fresh = HybridMatMul(node, seed=11, noise_sigma=0.01)
        fresh.set_models({m.name: m for m in load_models(path)})
        a = app.plan(60, PartitioningStrategy.FPM)
        b = fresh.plan(60, PartitioningStrategy.FPM)
        assert a.unit_allocations == b.unit_allocations
