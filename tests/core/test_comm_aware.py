"""Unit tests for communication-aware partition refinement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comm_aware import comm_aware_refinement, predicted_iteration_time
from repro.core.integer import round_partition
from repro.core.partition import partition_fpm
from repro.core.speed_function import SpeedFunction

from tests.oracles.comm_aware import comm_aware_refinement_scalar


def constant(speed):
    return SpeedFunction.constant(speed)


class TestPredictedIterationTime:
    def test_zero_beta_is_compute_makespan(self):
        models = [constant(10), constant(10)]
        t = predicted_iteration_time(models, [50, 50], beta=0.0)
        assert t == pytest.approx(5.0)

    def test_comm_term_uses_largest_perimeter(self):
        models = [constant(10), constant(10)]
        t = predicted_iteration_time(models, [100, 25], beta=1.0)
        assert t == pytest.approx(10.0 + 2 * 10.0)

    def test_empty_allocation(self):
        assert predicted_iteration_time([constant(1)], [0], 1.0) == 0.0

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            predicted_iteration_time([constant(1)], [1], -1.0)


class TestCommAwareRefinement:
    def test_zero_beta_preserves_balanced_allocation(self):
        models = [constant(10), constant(30)]
        start = [25, 75]
        assert comm_aware_refinement(models, start, beta=0.0) == start

    def test_shrinks_dominant_rectangle_under_heavy_comm(self):
        """Expensive broadcasts pull the optimum from proportional
        (compute-balanced) toward equal (perimeter-balanced) shares."""
        models = [constant(100), constant(50)]
        balanced = round_partition(models, partition_fpm(models, 300.0), 300)
        assert balanced == [200, 100]
        refined = comm_aware_refinement(models, list(balanced), beta=0.5)
        assert refined[0] < balanced[0]
        assert predicted_iteration_time(
            models, refined, 0.5
        ) < predicted_iteration_time(models, balanced, 0.5)

    def test_extreme_speed_gap_leaves_balance_alone(self):
        """When the receiver is far slower, no move can pay off."""
        models = [constant(100), constant(10)]
        balanced = round_partition(models, partition_fpm(models, 1100.0), 1100)
        refined = comm_aware_refinement(models, list(balanced), beta=0.05)
        assert refined == balanced

    def test_never_worse_than_start(self):
        models = [constant(50), constant(20), constant(10)]
        start = [700, 200, 100]
        refined = comm_aware_refinement(models, start, beta=0.01)
        assert predicted_iteration_time(models, refined, 0.01) <= (
            predicted_iteration_time(models, start, 0.01) + 1e-12
        )

    def test_sum_preserved(self):
        models = [constant(50), constant(20)]
        refined = comm_aware_refinement(models, [600, 400], beta=0.02)
        assert sum(refined) == 1000

    def test_respects_caps(self):
        bounded = SpeedFunction.from_points([1, 50], [1000, 1000], bounded=True)
        models = [constant(1.0), bounded]
        refined = comm_aware_refinement(models, [100, 0], beta=0.5)
        assert refined[1] <= 50

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            comm_aware_refinement([constant(1)], [1, 2], beta=0.0)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="at least one"):
            comm_aware_refinement([], [], beta=0.1)

    @pytest.mark.parametrize(
        "bad", [10.7, -9, float("nan"), float("inf")], ids=repr
    )
    def test_rejects_bad_entries_naming_the_index(self, bad):
        models = [constant(10), constant(20), constant(30)]
        with pytest.raises(ValueError, match=r"allocation\[1\] is"):
            comm_aware_refinement(models, [10, bad, 30], beta=0.1)

    def test_accepts_whole_floats(self):
        models = [constant(10), constant(20), constant(30)]
        assert comm_aware_refinement(
            models, [10.0, 20.0, 30.0], beta=0.1
        ) == comm_aware_refinement(models, [10, 20, 30], beta=0.1)

    def test_rejects_negative_max_moves(self):
        with pytest.raises(ValueError, match="max_moves"):
            comm_aware_refinement([constant(1)], [1], beta=0.0, max_moves=-1)

    @given(
        speeds=st.lists(
            st.floats(min_value=1.0, max_value=200.0), min_size=2, max_size=5
        ),
        total=st.integers(min_value=20, max_value=2000),
        beta=st.floats(min_value=0.0, max_value=0.1),
    )
    @settings(max_examples=50, deadline=None)
    def test_properties(self, speeds, total, beta):
        models = [constant(s) for s in speeds]
        start = round_partition(models, partition_fpm(models, float(total)), total)
        refined = comm_aware_refinement(models, list(start), beta=beta)
        assert sum(refined) == total
        assert all(a >= 0 for a in refined)
        assert predicted_iteration_time(models, refined, beta) <= (
            predicted_iteration_time(models, start, beta) + 1e-9
        )


class TestScalarOracleEquivalence:
    """The vectorised hill-climb must match the quadratic oracle exactly."""

    def test_bounded_and_zero_allocations(self):
        bounded = SpeedFunction.from_points([1, 50], [1000, 1000], bounded=True)
        models = [constant(1.0), bounded, constant(5.0)]
        start = [100, 0, 30]
        assert comm_aware_refinement(
            models, start, beta=0.5
        ) == comm_aware_refinement_scalar(models, start, beta=0.5)

    def test_single_unit(self):
        models = [constant(10.0)]
        assert comm_aware_refinement(
            models, [40], beta=0.3
        ) == comm_aware_refinement_scalar(models, [40], beta=0.3)

    @given(
        speeds=st.lists(
            st.floats(min_value=1.0, max_value=200.0), min_size=2, max_size=6
        ),
        total=st.integers(min_value=20, max_value=2000),
        beta=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_on_constants(self, speeds, total, beta):
        models = [constant(s) for s in speeds]
        start = round_partition(models, partition_fpm(models, float(total)), total)
        assert comm_aware_refinement(
            models, list(start), beta=beta
        ) == comm_aware_refinement_scalar(models, list(start), beta=beta)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        beta=st.floats(min_value=0.0, max_value=0.1),
    )
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_on_piecewise_models(self, seed, beta):
        import numpy as np

        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 7))
        models = []
        for _ in range(p):
            peak = float(rng.uniform(5.0, 200.0))
            half = float(rng.uniform(5.0, 80.0))
            sizes = [half / 2, half, 4 * half, 16 * half]
            models.append(
                SpeedFunction.from_points(
                    sizes, [peak * s / (s + half) for s in sizes]
                )
            )
        total = int(rng.integers(20, 2000))
        start = round_partition(
            models, partition_fpm(models, float(total)), total
        )
        assert comm_aware_refinement(
            models, list(start), beta=beta
        ) == comm_aware_refinement_scalar(models, list(start), beta=beta)
