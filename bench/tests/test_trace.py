import pytest

from repro.obs import Span, Tracer

from bench.trace import adopt_thread_roots, fold, layer_shares


def span(name, category, start, end, *children, **attrs):
    out = Span(name, category, start, attrs=attrs)
    out.wall_end_s = end
    out.children.extend(children)
    return out


def test_fold_charges_self_time_to_layers_across_roots():
    first = span(
        "bench.op", "bench", 0.0, 10.0,
        span("bench.solve", "bench", 1.0, 5.0,
             span("partition.fpm", "partition", 2.0, 4.0), layer="core"),
        span("store.get", "store", 6.0, 7.0),
    )
    second = span("runtime.panel_loop", "runtime", 20.0, 23.0)
    self_s = fold([first, second])
    assert self_s == pytest.approx(
        {"bench": 10.0 - 4.0 - 1.0, "core": 2.0 + 2.0, "store": 1.0, "runtime": 3.0}
    )
    assert sum(self_s.values()) == pytest.approx(13.0)


def test_overlapping_children_are_covered_once_and_clipped_to_the_parent():
    root = span(
        "experiment.fig2", "experiment", 0.0, 10.0,
        span("parallel.worker", "runtime", 2.0, 6.0),
        span("parallel.worker", "runtime", 4.0, 8.0),
        span("mpi.bcast", "runtime", 9.0, 12.0),  # runs past its parent
    )
    self_s = fold([root])
    # the parent loses [2, 8] and [9, 10]; each child keeps its own time
    assert self_s["experiments"] == pytest.approx(3.0)
    assert self_s["runtime"] == pytest.approx(4.0 + 4.0 + 1.0)


def test_open_spans_and_unknown_categories():
    open_child = Span("measure.reliable", "measurement", 1.0)
    root = span("custom", "repro", 0.0, 2.0, open_child)
    assert fold([root]) == {"bench": 2.0}


def test_worker_roots_nest_under_the_request_that_contains_them():
    request = span("service.request", "service", 1.0, 9.0)
    op = span("bench.op", "bench", 0.0, 10.0, request, layer="bench")
    build = span("fpm.build", "measurement", 2.0, 5.0, span("store.get", "store", 2.0, 3.0))
    solve = span("partition.fpm", "partition", 6.0, 8.0)
    stray = span("partition.fpm", "partition", 11.0, 12.0)
    kept = adopt_thread_roots([op, build, solve, stray])
    assert kept == [op, stray]
    assert request.children == [build, solve]
    self_s = fold(kept)
    assert self_s == pytest.approx(
        {"bench": 2.0, "service": 3.0, "measurement": 2.0, "store": 1.0, "core": 3.0}
    )


def test_shares_cover_every_layer():
    shares = layer_shares({"core": 3.0, "bench": 1.0}, 4.0)
    assert shares["core.self_pct"] == pytest.approx(75.0)
    assert shares["service.self_pct"] == 0.0
    assert sum(shares.values()) == pytest.approx(100.0)


def test_bench_spans_nest_program_spans_in_a_live_tracer():
    from bench.trace import layer_span

    tracer = Tracer()
    with layer_span(tracer, "bench.op"):
        with layer_span(tracer, "bench.solve", "core"):
            tracer.span("partition.fpm", category="partition").finish()
    (root,) = tracer.roots
    assert root.children[0].attrs["layer"] == "core"
    assert root.children[0].children[0].category == "partition"
    assert set(fold(tracer.roots)) <= {"bench", "core"}
