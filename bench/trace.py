"""Per-layer attribution of a traced phase: bench spans, self-time fold, counts.

The benchmark opens its own spans (category ``bench``) around every
public call it makes, tagged with the layer that call belongs to, so the
spans the program records itself nest under them.  A span's self time is
its duration minus the part of it its children cover; summing self time
by layer splits the traced op time across the ``repro`` packages.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Iterable, Iterator

from repro.obs import MetricRegistry, Span, Tracer

#: Layer of each span category the program records.
CATEGORY_LAYER = {
    "measurement": "measurement",
    "partition": "core",
    "runtime": "runtime",
    "store": "store",
    "service": "service",
    "app": "app",
    "experiment": "experiments",
}

#: Every layer a fold reports, in print order.  ``bench`` is time inside a
#: benchmark op that no call claims: the benchmark's own glue.
LAYERS = (
    "measurement",
    "core",
    "runtime",
    "store",
    "service",
    "app",
    "experiments",
    "bench",
)


@contextmanager
def layer_span(tracer: Tracer | None, name: str, layer: str = "bench") -> Iterator[None]:
    """A bench span around one call into ``layer`` (nothing when untraced)."""
    if tracer is None:
        yield
        return
    with tracer.span(name, category="bench", layer=layer):
        yield


def layer_of(span: Span) -> str:
    """The layer a span's self time is charged to."""
    if span.category == "bench":
        return span.attrs.get("layer", "bench")
    return CATEGORY_LAYER.get(span.category, "bench")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def fold(roots: Iterable[Span]) -> dict[str, float]:
    """Self seconds per layer over span trees.

    Children are clipped to their parent, and overlapping children are
    counted once against the parent, so a parent's self time is never
    negative.  Open spans count as zero length.
    """
    out: dict[str, float] = defaultdict(float)
    stack = [(root, float("-inf"), float("inf")) for root in roots]
    while stack:
        span, lo, hi = stack.pop()
        end = span.wall_end_s if span.wall_end_s is not None else span.wall_start_s
        start, end = max(span.wall_start_s, lo), min(end, hi)
        if end <= start:
            continue
        inside = []
        for child in span.children:
            child_end = (
                child.wall_end_s if child.wall_end_s is not None else child.wall_start_s
            )
            c_lo, c_hi = max(child.wall_start_s, start), min(child_end, end)
            if c_hi > c_lo:
                inside.append((c_lo, c_hi))
            stack.append((child, start, end))
        out[layer_of(span)] += (end - start) - _covered(inside)
    return dict(out)


def adopt_thread_roots(roots: list[Span]) -> list[Span]:
    """Nest roots recorded on worker threads under the bench op containing them.

    A service runs builds and solves on its pool threads, whose spans
    become roots of their own.  When requests are replayed one at a time,
    each such root lies inside exactly one bench op span in time; it is
    attached to the innermost span of that op that contains it.  Returns
    the bench op roots (worker roots no op contains are kept as roots).
    """
    ops = [span for span in roots if span.category == "bench"]
    kept = list(ops)
    for span in roots:
        if span.category == "bench":
            continue
        end = span.wall_end_s if span.wall_end_s is not None else span.wall_start_s
        host = None
        for op in ops:
            if op.wall_start_s <= span.wall_start_s and end <= (op.wall_end_s or 0.0):
                host = op
                break
        if host is None:
            kept.append(span)
            continue
        descended = True
        while descended:
            descended = False
            for child in host.children:
                if (
                    child.wall_end_s is not None
                    and child.wall_start_s <= span.wall_start_s
                    and end <= child.wall_end_s
                ):
                    host = child
                    descended = True
                    break
        host.children.append(span)
    return kept


def layer_shares(self_s: dict[str, float], op_s: float) -> dict[str, float]:
    """``<layer>.self_pct``: each layer's self time as a percent of op time."""
    return {
        f"{layer}.self_pct": 100.0 * self_s.get(layer, 0.0) / op_s if op_s > 0 else 0.0
        for layer in LAYERS
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_counts(registry: MetricRegistry) -> dict[str, tuple[float, str]]:
    """Per-layer work counts, as ``name -> (value, unit)``, read from a
    tracer's counters and histograms."""
    counters = registry.counters
    histograms = registry.histograms

    def count(name: str) -> int:
        found = counters.get(name)
        return found.value if found is not None else 0

    accepted = count("measure.samples.accepted")
    rejected = count("measure.samples.rejected")
    solves = count("partition.solver.solves") + count("partition.resolve.solves")
    resolve_evals = histograms.get("partition.resolve.evaluations")
    evals = count("partition.solver.evaluations") + (
        resolve_evals.sum if resolve_evals is not None else 0
    )
    hits, misses = count("store.hit"), count("store.miss")
    sources = {
        source: count(f"service.partition.{source}")
        for source in ("hot", "warm", "built", "coalesced")
    }
    return {
        "measurement.samples_accepted": (accepted, "count"),
        "measurement.samples_rejected": (rejected, "count"),
        "measurement.accept_ratio": (_ratio(accepted, accepted + rejected), "ratio"),
        "measurement.models_built": (count("fpm.models_built"), "count"),
        "core.solves": (solves, "count"),
        "core.evals_per_solve": (_ratio(evals, solves), "evals/solve"),
        "core.rows_rebuilt": (count("partition.resolve.rows_rebuilt"), "count"),
        "runtime.events": (count("sim.events.processed"), "count"),
        "runtime.device_events": (count("runtime.sim.device_events"), "count"),
        "runtime.drift_panels": (count("runtime.drift.panels"), "count"),
        "runtime.commits": (count("runtime.drift.commits"), "count"),
        "store.hits": (hits, "count"),
        "store.misses": (misses, "count"),
        "store.puts": (count("store.put"), "count"),
        "store.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        **{f"service.{source}": (n, "count") for source, n in sources.items()},
        "service.hot_ratio": (_ratio(sources["hot"], sum(sources.values())), "ratio"),
    }
