"""Building functional performance models from benchmark sweeps.

The FPM of a device is its empirical speed function: reliable kernel
timings over a grid of problem sizes (paper Section V).  The builder
supports fixed linear/geometric grids and an adaptive mode that inserts
midpoints where the piecewise-linear interpolation mispredicts the
measured speed — spending measurements where the curve actually bends
(around cache and device-memory boundaries).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.fpm import FunctionalPerformanceModel
from repro.core.serialization import fpm_from_dict, fpm_to_dict
from repro.core.speed_function import SpeedFunction, SpeedSample
from repro.kernels.interface import Kernel
from repro.measurement.benchmark import HybridBenchmark
from repro.obs import get_tracer
from repro.store import bench_key, get_store, kernel_key
from repro.util.validation import check_positive, check_positive_int


@dataclass(frozen=True)
class SizeGrid:
    """A grid of problem sizes (b x b blocks) to sample a speed function on."""

    sizes: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.sizes:
            raise ValueError("a size grid needs at least one size")
        for a, b in zip(self.sizes, self.sizes[1:]):
            if not 0 < a < b:
                raise ValueError(
                    f"grid sizes must be positive and strictly increasing "
                    f"(got {a} then {b})"
                )

    @classmethod
    def linear(cls, start: float, stop: float, count: int) -> "SizeGrid":
        """``count`` evenly spaced sizes across [start, stop]."""
        check_positive("start", start)
        check_positive_int("count", count)
        if count == 1:
            return cls((start,))
        if not stop > start:
            raise ValueError(f"stop ({stop}) must exceed start ({start})")
        step = (stop - start) / (count - 1)
        return cls(tuple(start + i * step for i in range(count)))

    @classmethod
    def geometric(cls, start: float, stop: float, count: int) -> "SizeGrid":
        """``count`` geometrically spaced sizes across [start, stop]."""
        check_positive("start", start)
        check_positive_int("count", count)
        if count == 1:
            return cls((start,))
        if not stop > start:
            raise ValueError(f"stop ({stop}) must exceed start ({start})")
        ratio = (stop / start) ** (1.0 / (count - 1))
        return cls(tuple(start * ratio**i for i in range(count)))

    def clamped(self, max_size: float) -> "SizeGrid":
        """Restrict the grid to a kernel's valid range.

        Points beyond ``max_size`` are dropped, and ``max_size`` itself is
        appended when the grid extended past it — a bounded model should
        know its speed right at the boundary (the device-capacity point).
        """
        kept = [s for s in self.sizes if s <= max_size]
        if not kept:
            raise ValueError(
                f"no grid point is within the valid range (max {max_size})"
            )
        if kept[-1] < max_size < self.sizes[-1]:
            kept.append(max_size)
        return SizeGrid(tuple(kept))


@dataclass
class FpmBuilder:
    """Builds FPMs by timing a kernel over a size grid.

    Adaptive refinement splits an interval when the measured midpoint
    deviates from the linear prediction by more than
    ``adaptive_tolerance`` — or when the endpoint speeds differ by more
    than ``adaptive_variation`` even if the midpoint happens to sit on
    the chord (a cliff-shaped curve can fool the chord test alone: the
    point just past the cliff lies near the straight line between the
    pre-cliff and far-past-cliff samples, yet the curve between them is
    nothing like that line).
    """

    bench: HybridBenchmark
    adaptive_tolerance: float = 0.05
    adaptive_variation: float = 1.5
    max_adaptive_rounds: int = 3
    min_interval: float = 1.0

    def build(
        self,
        kernel: Kernel,
        grid: SizeGrid,
        busy_cpu_cores: int = 0,
        name: str | None = None,
        bounded: bool | None = None,
        adaptive: bool = False,
    ) -> FunctionalPerformanceModel:
        """Measure the kernel across the grid and assemble its FPM.

        ``bounded`` defaults to whether the kernel itself has a finite
        valid range; ``adaptive`` enables midpoint refinement.

        When a store is active (:func:`repro.store.get_store`), the built
        model is cached under a digest of every input — benchmark
        identity, kernel, clamped grid, contention state and the
        builder's refinement knobs — and an identical later call replays
        it instead of re-measuring.  A stored payload the decoder rejects
        counts as ``store.corrupt`` and is rebuilt and overwritten, like
        an entry the store itself cannot read.
        """
        valid = kernel.valid_range
        if math.isfinite(valid.max_blocks):
            grid = grid.clamped(valid.max_blocks)

        store = get_store()
        key = None
        if store is not None:
            key = self._cache_key(kernel, grid, busy_cpu_cores, name, bounded, adaptive)
            cached = store.get("fpm", key)
            if cached is not None:
                try:
                    return fpm_from_dict(cached)
                except (AttributeError, KeyError, TypeError, ValueError):
                    get_tracer().counter("store.corrupt").add()

        tracer = get_tracer()
        with tracer.span(
            "fpm.build",
            category="measurement",
            model=name or kernel.name,
            grid_points=len(grid.sizes),
            adaptive=adaptive,
        ) as span:
            grid_samples, reps_total = self._measure_samples(
                kernel, list(grid.sizes), busy_cpu_cores
            )
            samples: dict[float, SpeedSample] = dict(zip(grid.sizes, grid_samples))

            if adaptive:
                reps_total += self._refine(kernel, samples, busy_cpu_cores)

            ordered = [samples[k] for k in sorted(samples)]
            if tracer.enabled:
                span.set_attr("samples", len(ordered))
                span.set_attr("repetitions_total", reps_total)
                tracer.counter("fpm.models_built").add(1)
            fn = SpeedFunction(
                ordered,
                bounded=(
                    bounded
                    if bounded is not None
                    else math.isfinite(valid.max_blocks)
                ),
            )
            model = FunctionalPerformanceModel(
                name=name or kernel.name,
                speed_function=fn,
                kernel_name=kernel.name,
                block_size=kernel.block_size,
                repetitions_total=reps_total,
            )
            if store is not None:
                store.put("fpm", key, fpm_to_dict(model))
            return model

    # ------------------------------------------------------------ internal
    def _cache_key(
        self,
        kernel: Kernel,
        grid: SizeGrid,
        busy_cpu_cores: int,
        name: str | None,
        bounded: bool | None,
        adaptive: bool,
    ) -> dict:
        """Every input that shapes the built model, as a store key."""
        return {
            "artifact": "fpm-build",
            "bench": bench_key(self.bench),
            "kernel": kernel_key(kernel),
            "grid": list(grid.sizes),
            "busy_cpu_cores": busy_cpu_cores,
            "name": name,
            "bounded": bounded,
            "adaptive": adaptive,
            "tuning": [
                self.adaptive_tolerance,
                self.adaptive_variation,
                self.max_adaptive_rounds,
                self.min_interval,
            ],
        }
    def _measure_samples(
        self, kernel: Kernel, sizes: list[float], busy_cpu_cores: int
    ) -> tuple[list[SpeedSample], int]:
        """Measure a batch of sizes in one sweep (the vectorised fast path).

        Speeds come from :meth:`HybridBenchmark.measure_speeds`, which is
        bit-identical to per-size ``measure_speed`` calls; the
        ``fpm.samples`` counter advances by the batch size so its total
        matches the old per-point accounting exactly.
        """
        tracer = get_tracer()
        with tracer.span(
            "fpm.samples", category="measurement", sizes=len(sizes)
        ) as span:
            measured = self.bench.measure_speeds(kernel, sizes, busy_cpu_cores)
            reps_total = sum(m.timing.repetitions for m in measured)
            if tracer.enabled:
                span.set_attr("repetitions_total", reps_total)
                tracer.counter("fpm.samples").add(len(measured))
            samples = [
                SpeedSample(
                    size=size,
                    speed=m.speed_gflops,
                    rel_precision=m.timing.rel_precision,
                )
                for size, m in zip(sizes, measured)
            ]
            return samples, reps_total

    def _refine(
        self,
        kernel: Kernel,
        samples: dict[float, SpeedSample],
        busy_cpu_cores: int,
    ) -> int:
        """Insert midpoints where linear interpolation mispredicts speed.

        Each round measures all of its midpoints in ONE batched sweep —
        midpoints of disjoint intervals never serve as endpoints within a
        round, so the chord and cliff tests see the same speeds as the old
        one-point-at-a-time loop.
        """
        reps_total = 0
        intervals = _adjacent_pairs(sorted(samples))
        for _ in range(self.max_adaptive_rounds):
            splits: list[tuple[float, float, float]] = []
            for lo, hi in intervals:
                mid = 0.5 * (lo + hi)
                if mid <= lo or mid >= hi or (hi - lo) < self.min_interval:
                    continue  # nothing meaningfully between the endpoints
                splits.append((lo, hi, mid))
            if not splits:
                break
            mids = [mid for _, _, mid in splits]
            mid_samples, reps = self._measure_samples(kernel, mids, busy_cpu_cores)
            get_tracer().counter("fpm.adaptive.points").add(len(mids))
            reps_total += reps
            next_intervals: list[tuple[float, float]] = []
            for (lo, hi, mid), sample in zip(splits, mid_samples):
                samples[mid] = sample
                predicted = 0.5 * (samples[lo].speed + samples[hi].speed)
                err = abs(predicted - sample.speed) / sample.speed
                if err > self.adaptive_tolerance:
                    next_intervals.extend([(lo, mid), (mid, hi)])
                else:
                    # chord test passed; still recurse into halves whose
                    # endpoint speeds differ strongly (cliff detection)
                    for a, b in ((lo, mid), (mid, hi)):
                        ratio = max(samples[a].speed, samples[b].speed) / min(
                            samples[a].speed, samples[b].speed
                        )
                        if ratio > self.adaptive_variation:
                            next_intervals.append((a, b))
            if not next_intervals:
                break
            intervals = next_intervals
        return reps_total


def _adjacent_pairs(values: list[float]) -> list[tuple[float, float]]:
    return list(zip(values, values[1:]))
