"""Golden equivalence: the vectorised measurement engine vs the scalar oracle.

``measure_until_reliable`` (one sample() call per repetition) is kept as the
reference implementation; every fast path built on the batch engine must be
bit-identical to it — same floats, same repetition counts, same error
messages, same observability counter totals.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.benchmark import HybridBenchmark
from repro.measurement.fpm_builder import FpmBuilder, SizeGrid
from repro.measurement.reliability import (
    ReliabilityCriterion,
    measure_until_reliable,
    measure_until_reliable_batch,
    measure_until_reliable_rounds,
)
from repro.obs import Tracer, use_tracer
import repro.platform.noise as noise_module
from repro.platform.drift import DriftModel
from repro.platform.faults import FaultPlan, KernelFaultError, RetryPolicy
from repro.platform.noise import NoiseModel
from repro.util.rng import RngStream

SIZES = (12.0, 40.0, 130.0, 700.0, 2500.0)


@pytest.fixture(scope="module")
def bench(node):
    return HybridBenchmark(node)


def _kernels(bench):
    return [
        (bench.socket_kernel(0, 5), 0),
        (bench.socket_kernel(0, 6, gpu_active=True), 0),
        (bench.gpu_kernel(0, 1), 0),
        (bench.gpu_kernel(1, 2), 3),
        (bench.gpu_kernel(1, 3), 5),
    ]


class TestKernelBatch:
    def test_run_time_batch_matches_scalar(self, bench):
        for kernel, busy in _kernels(bench):
            batch = kernel.run_time_batch(np.asarray(SIZES), busy)
            for size, value in zip(SIZES, batch):
                assert float(value) == kernel.run_time(size, busy)

    def test_rejects_negative_area(self, bench):
        kernel = bench.socket_kernel(0, 5)
        with pytest.raises(ValueError, match="area_blocks"):
            kernel.run_time_batch([12.0, -1.0])

    def test_rejects_non_1d_batch(self, bench):
        kernel = bench.socket_kernel(0, 5)
        with pytest.raises(ValueError, match="1-D"):
            kernel.run_time_batch(np.ones((2, 2)))


class TestMeasureSpeedsBatch:
    def test_bit_identical_to_scalar_loop(self, bench):
        for kernel, busy in _kernels(bench):
            batch = bench.measure_speeds(kernel, SIZES, busy)
            for size, got in zip(SIZES, batch):
                want = bench.measure_speed(kernel, size, busy)
                assert got.area_blocks == want.area_blocks
                assert got.speed_gflops == want.speed_gflops
                assert got.timing == want.timing

    def test_counter_totals_match_scalar_path(self, bench):
        kernel = bench.socket_kernel(0, 5)
        scalar_tracer = Tracer()
        with use_tracer(scalar_tracer):
            for size in SIZES:
                bench.measure_speed(kernel, size)
        batch_tracer = Tracer()
        with use_tracer(batch_tracer):
            bench.measure_speeds(kernel, SIZES)
        for name in ("measure.samples.accepted", "measure.samples.rejected"):
            assert (
                batch_tracer.counter(name).value
                == scalar_tracer.counter(name).value
            )


class TestReliabilityBatch:
    def test_negative_timing_message_matches_scalar(self):
        values = [1.0, 2.0, 1.5, -1.0, 1.0]
        criterion = ReliabilityCriterion(
            rel_err=1e-9, min_repetitions=2, max_repetitions=5
        )
        with pytest.raises(ValueError, match="negative timing -1.0 from repetition 3"):
            measure_until_reliable(lambda rep: values[rep], criterion)
        with pytest.raises(ValueError, match="negative timing -1.0 from repetition 3"):
            measure_until_reliable_batch(
                lambda start, count: np.asarray(values[start : start + count]),
                criterion,
            )

    def test_negative_after_stop_never_sampled_by_scalar(self):
        # the scalar loop stops at repetition 2 and never sees the negative;
        # the batch path draws it (chunks are prefetched) but must not raise
        values = [1.0, 1.0, -1.0, -1.0]
        criterion = ReliabilityCriterion(
            rel_err=0.5, min_repetitions=2, max_repetitions=4
        )
        scalar = measure_until_reliable(lambda rep: values[rep], criterion)
        batch = measure_until_reliable_batch(
            lambda start, count: np.asarray(values[start : start + count]),
            criterion,
        )
        assert batch == scalar
        assert batch.repetitions == 2

    def test_budget_exhaustion_identical(self):
        noise = NoiseModel(RngStream(7).child("bench"), 0.8)
        criterion = ReliabilityCriterion(
            rel_err=0.001, min_repetitions=5, max_repetitions=37
        )
        scalar = measure_until_reliable(
            lambda rep: noise.perturb(1.0, "k", f"r{rep}"), criterion
        )
        batch = measure_until_reliable_batch(
            lambda start, count: noise.perturb_batch(
                1.0, ("k",), [f"r{r}" for r in range(start, start + count)]
            ),
            criterion,
        )
        assert batch == scalar
        assert not batch.reliable
        assert batch.repetitions == 37


class TestFaultInjectedEquivalence:
    """The fault layer must not fork the scalar/batch equivalence."""

    def _faulty_bench(self, node, spec="fail:*:p=0.1,code=13; spike:*:p=0.1,x=6"):
        # a generous retry budget: exhaustion (p^(1+retries) per rep) would
        # abort the measurement, which is its own test below
        return HybridBenchmark(
            node,
            seed=31,
            noise_sigma=0.01,
            faults=FaultPlan.from_spec(spec, seed=31),
            retry=RetryPolicy(max_retries=6),
        )

    def test_bit_identical_under_faults(self, node):
        bench = self._faulty_bench(node)
        for kernel, busy in _kernels(bench):
            batch = bench.measure_speeds(kernel, SIZES, busy)
            for size, got in zip(SIZES, batch):
                want = bench.measure_speed(kernel, size, busy)
                assert got.area_blocks == want.area_blocks
                assert got.speed_gflops == want.speed_gflops
                assert got.timing == want.timing

    def test_fault_counter_totals_match_scalar_path(self, node):
        bench = self._faulty_bench(node)
        kernel = bench.socket_kernel(0, 5)
        scalar_tracer = Tracer()
        with use_tracer(scalar_tracer):
            for size in SIZES:
                bench.measure_speed(kernel, size)
        batch_tracer = Tracer()
        with use_tracer(batch_tracer):
            bench.measure_speeds(kernel, SIZES)
        scalar = scalar_tracer.metrics.snapshot()
        batch = batch_tracer.metrics.snapshot()
        assert scalar.get("measure.faults", 0) > 0  # the spec actually fired
        for name in (
            "measure.faults",
            "measure.retries",
            "measure.samples.accepted",
            "measure.samples.rejected",
        ):
            assert batch.get(name, 0) == scalar.get(name, 0), name

    def test_exhaustion_messages_identical(self, node):
        # p=1: every attempt fails, both paths give up with the same error
        bench = self._faulty_bench(node, spec="fail:*:p=1,code=13")
        kernel = bench.socket_kernel(0, 5)
        with pytest.raises(KernelFaultError) as scalar_err:
            bench.measure_time(kernel, 50.0)
        with pytest.raises(KernelFaultError) as batch_err:
            bench.measure_times(kernel, [50.0])
        assert str(scalar_err.value) == str(batch_err.value)
        assert "error code 13" in str(scalar_err.value)
        # the final attempt index is the retry budget
        assert f"a{bench.retry.max_retries}" in str(scalar_err.value)

    def test_inert_plan_matches_no_plan(self, node):
        clean = HybridBenchmark(node, seed=31, noise_sigma=0.01)
        inert = HybridBenchmark(
            node,
            seed=31,
            noise_sigma=0.01,
            faults=FaultPlan.from_spec("", seed=31),
        )
        kernel_c = clean.socket_kernel(1, 6)
        kernel_i = inert.socket_kernel(1, 6)
        for size in SIZES:
            assert clean.measure_speed(kernel_c, size) == inert.measure_speed(
                kernel_i, size
            )

    def test_fault_free_runs_have_no_fault_counters(self, node):
        # the fault layer installed-but-disabled must not pollute metrics
        bench = HybridBenchmark(node, seed=31, noise_sigma=0.01)
        tracer = Tracer()
        with use_tracer(tracer):
            bench.measure_speed(bench.socket_kernel(0, 5), 40.0)
        snapshot = tracer.metrics.snapshot()
        assert "measure.faults" not in snapshot
        assert "measure.retries" not in snapshot

    def test_retry_recovers_and_costs_repetitions(self):
        # rep 1 fails on attempts 0-1 and succeeds on attempt 2
        calls = []

        def sample(rep, attempt=0):
            calls.append((rep, attempt))
            if rep == 1 and attempt < 2:
                raise KernelFaultError("dev", 9, (f"r{rep}", f"a{attempt}"))
            return 1.0

        criterion = ReliabilityCriterion(
            rel_err=0.5, min_repetitions=3, max_repetitions=3
        )
        retry = RetryPolicy(max_retries=3)
        result = measure_until_reliable(sample, criterion, retry=retry)
        assert result.repetitions == 3
        assert (1, 0) in calls and (1, 1) in calls and (1, 2) in calls

    def test_no_retry_policy_propagates_first_failure(self):
        def sample(rep, attempt=0):
            raise KernelFaultError("dev", 9, (f"r{rep}", f"a{attempt}"))

        criterion = ReliabilityCriterion(
            rel_err=0.5, min_repetitions=1, max_repetitions=2
        )
        with pytest.raises(KernelFaultError, match="r0/a0"):
            measure_until_reliable(sample, criterion)


class TestFpmBuilderBatch:
    def test_adaptive_build_counters_consistent(self, bench):
        grid = SizeGrid.geometric(12.0, 3000.0, 8)
        kernel = bench.gpu_kernel(1, 3)
        tracer = Tracer()
        with use_tracer(tracer):
            model = FpmBuilder(bench).build(kernel, grid, adaptive=True)
        samples = model.speed_function.samples
        assert tracer.counter("fpm.samples").value == len(samples)
        assert tracer.counter("fpm.adaptive.points").value == len(samples) - len(
            grid.sizes
        )

    def test_build_matches_scalar_speeds(self, bench):
        grid = SizeGrid.linear(12.0, 1200.0, 6)
        kernel = bench.socket_kernel(2, 6)
        model = FpmBuilder(bench).build(kernel, grid)
        for sample in model.speed_function.samples:
            want = bench.measure_speed(kernel, sample.size)
            assert sample.speed == want.speed_gflops
            assert sample.rel_precision == want.timing.rel_precision


class TestLockstepRounds:
    """``measure_times`` runs every size's protocol in lockstep rounds."""

    SWEEP = tuple(12.0 * 1.35**i for i in range(24))

    def test_sweep_equals_per_size_with_every_modifier_on(self, node):
        bench = HybridBenchmark(
            node,
            seed=8,
            noise_sigma=0.03,
            faults=FaultPlan.from_spec("fail:*:p=0.1; spike:*:p=0.1,x=5", seed=8),
            retry=RetryPolicy(max_retries=6),
        )
        bench.timer.noise = NoiseModel(
            RngStream(8).child("bench"), sigma=0.03, outlier_prob=0.05
        )
        bench.timer.drift = DriftModel.from_spec(
            "burst:*:p=0.5,x=2,len=1; jitter:*:sigma=0.05,w=1", seed=8
        )
        sizes = self.SWEEP[::3]
        for kernel, busy in _kernels(bench)[::2]:
            sweep = bench.measure_times(kernel, sizes, busy)
            assert sweep == [bench.measure_time(kernel, size, busy) for size in sizes]

    def test_draw_calls_per_sweep_at_most_the_round_count(self, bench, monkeypatch):
        calls = []
        real = noise_module.normals
        monkeypatch.setattr(
            noise_module, "normals", lambda *a: calls.append(1) or real(*a)
        )
        noisy = HybridBenchmark(bench.node, seed=3, noise_sigma=0.2)
        kernel = noisy.socket_kernel(0, 5)
        timings = noisy.measure_times(kernel, self.SWEEP)
        # min 5, max 100: chunks 5, 10, 20, 40, 25
        assert max(m.repetitions for m in timings) == 100
        assert 1 <= len(calls) <= 5

    def test_earliest_failing_measurement_raises(self):
        criterion = ReliabilityCriterion(
            rel_err=1e-9, min_repetitions=2, max_repetitions=8
        )
        seen = []

        def sample_round(active, start, count):
            seen.append(list(active))
            # alternating 1, 2: never reliable at rel_err 1e-9
            rows = np.ones((len(active), count)) + np.arange(start, start + count) % 2
            for row, i in zip(rows, active):
                if (i == 2 and start == 0) or (i == 0 and start == 2):
                    row[0] = -float(i + 1)
            return rows

        with pytest.raises(ValueError, match="negative timing -1.0 from repetition 2"):
            measure_until_reliable_rounds(sample_round, 4, criterion)
        # measurement 2 fails in round 0, so 3 never runs again; 0 fails next
        assert seen == [[0, 1, 2, 3], [0, 1]]

    def test_one_size_case_is_the_batch_protocol(self):
        noise = NoiseModel(RngStream(7).child("bench"), 0.3)
        criterion = ReliabilityCriterion(rel_err=0.05, max_repetitions=60)

        def batch(start, count):
            return noise.perturb_batch(
                1.0, ("k",), [f"r{r}" for r in range(start, start + count)]
            )

        rounds = measure_until_reliable_rounds(
            lambda active, start, count: batch(start, count)[None], 1, criterion
        )
        assert rounds == [measure_until_reliable_batch(batch, criterion)]
        assert rounds[0] == measure_until_reliable(
            lambda rep: noise.perturb(1.0, "k", f"r{rep}"), criterion
        )
