"""Failure injection: the measurement stack under timing outliers.

Real benchmark runs occasionally catch an OS hiccup that stretches one
timing by an order of magnitude.  These tests inject such spikes and check
what the Section III protocol does about them: flag the affected
measurements as unreliable, spend more repetitions, and — the end-to-end
criterion — still produce a partition whose *true* balance is close to the
clean platform's.
"""

import pytest

from repro.app.matmul import HybridMatMul, PartitioningStrategy
from repro.measurement.reliability import ReliabilityCriterion
from repro.platform.noise import NoiseModel
from repro.platform.presets import ig_icl_node
from repro.util.rng import RngStream


class TestNoiseModelOutliers:
    def test_outliers_occur_at_configured_rate(self):
        noise = NoiseModel(
            RngStream(1), sigma=0.0, outlier_prob=0.1, outlier_factor=10.0
        )
        values = [noise.perturb(1.0, "k", i) for i in range(2000)]
        spikes = sum(1 for v in values if v > 5.0)
        assert 120 <= spikes <= 280  # ~10% +/- sampling noise

    def test_outliers_reproducible(self):
        a = NoiseModel(RngStream(2), sigma=0.01, outlier_prob=0.05)
        b = NoiseModel(RngStream(2), sigma=0.01, outlier_prob=0.05)
        assert [a.perturb(1.0, i) for i in range(50)] == [
            b.perturb(1.0, i) for i in range(50)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(RngStream(1), outlier_prob=1.5)
        with pytest.raises(ValueError):
            NoiseModel(RngStream(1), outlier_factor=0.5)


class TestReliabilityUnderOutliers:
    def _bench_with_outliers(self, prob):
        from repro.measurement.benchmark import HybridBenchmark

        bench = HybridBenchmark(
            ig_icl_node(),
            seed=5,
            noise_sigma=0.02,
        )
        bench.timer.noise = NoiseModel(
            RngStream(5).child("bench"),
            sigma=0.02,
            outlier_prob=prob,
            outlier_factor=10.0,
        )
        return bench

    def test_spikes_trigger_more_repetitions(self):
        # over a sweep, not one size: an 8% spike misses a single 11-rep
        # measurement entirely with probability 0.92^11 ~ 0.4, but across
        # 20 sizes the spikes must land and stretch the protocol
        clean = self._bench_with_outliers(0.0)
        dirty = self._bench_with_outliers(0.08)
        sizes = [300.0 + 20.0 * i for i in range(20)]
        clean_m = clean.measure_times(clean.socket_kernel(2, 6), sizes)
        dirty_m = dirty.measure_times(dirty.socket_kernel(2, 6), sizes)
        assert sum(m.repetitions for m in dirty_m) > sum(
            m.repetitions for m in clean_m
        )

    def test_heavy_spikes_flagged_unreliable(self):
        bench = self._bench_with_outliers(0.3)
        bench.criterion = ReliabilityCriterion(
            rel_err=0.01, min_repetitions=5, max_repetitions=20
        )
        m = bench.measure_time(bench.socket_kernel(2, 6), 500.0)
        assert not m.reliable
        assert m.rel_precision > 0.01


class TestEndToEndRobustness:
    def test_partition_survives_moderate_outliers(self):
        """Models built under 2% spike probability still balance well."""
        clean_app = HybridMatMul(ig_icl_node(), seed=5, noise_sigma=0.0)
        clean_app.build_models(
            max_blocks=4000.0, cpu_points=8, gpu_points=10, adaptive=False
        )
        clean_plan = clean_app.plan(60, PartitioningStrategy.FPM)

        dirty_app = HybridMatMul(ig_icl_node(), seed=5, noise_sigma=0.02)
        dirty_app.bench.timer.noise = NoiseModel(
            RngStream(5).child("bench"),
            sigma=0.02,
            outlier_prob=0.02,
            outlier_factor=8.0,
        )
        dirty_app.build_models(
            max_blocks=4000.0, cpu_points=8, gpu_points=10, adaptive=False
        )
        dirty_plan = dirty_app.plan(60, PartitioningStrategy.FPM)

        total = 3600
        l1 = sum(
            abs(a - b)
            for a, b in zip(
                clean_plan.unit_allocations, dirty_plan.unit_allocations
            )
        )
        # outlier-polluted models shift the distribution only mildly
        assert l1 / total < 0.15
        # and the dirty plan executed on the true platform stays usable
        result = clean_app.execute(dirty_plan)
        baseline = clean_app.execute(clean_plan)
        assert result.total_time < baseline.total_time * 1.2
