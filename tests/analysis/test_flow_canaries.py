"""ISSUE 6 acceptance canaries: each deliberate violation produces
exactly one diagnostic, anchored at the sink, with the correct
source→sink symbol path in the message — plus the multi-file noqa
regression (a suppression at the sink silences an interprocedural
diagnostic whose source lives in another file)."""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.analysis.engine import lint_paths
from repro.analysis.registry import get_rule

HERE = Path(__file__).parent
FLOW_FIXTURES = HERE / "flow_fixtures"
REPO_ROOT = HERE.parent.parent


def test_shared_rng_into_executor_exactly_one_diagnostic():
    """A shared default_rng submitted to a pool: one REP101, at the
    submit sink, path source→sink — and no second hit at the creation."""
    result = lint_paths(
        [FLOW_FIXTURES], rules=[get_rule("REP101")], root=REPO_ROOT
    )
    from_canary = [
        d for d in result.diagnostics if d.path.endswith("submit_bad.py")
    ]
    assert len(from_canary) == 1
    diag = from_canary[0]
    assert "repro.pipeline.submit_bad.GEN" in diag.message
    assert (
        "path: repro.pipeline.submit_bad.run_all -> submit -> "
        "repro.pipeline.submit_bad.worker" in diag.message
    )


def test_perf_counter_in_event_sim_path_exactly_one_diagnostic():
    """perf_counter reached from the event simulator: one REP102, at the
    clock read in the *other* file, with the full call path."""
    result = lint_paths(
        [FLOW_FIXTURES], rules=[get_rule("REP102")], root=REPO_ROOT
    )
    assert len(result.diagnostics) == 1
    diag = result.diagnostics[0]
    assert diag.path.endswith("measurement/timers.py")
    assert "time.perf_counter" in diag.message
    assert (
        "path: repro.runtime.event_sim.EventSimulator.advance -> "
        "repro.measurement.timers.elapsed_wall_s" in diag.message
    )


def test_executor_writes_report_at_sink_with_path():
    result = lint_paths(
        [FLOW_FIXTURES], rules=[get_rule("REP103")], root=REPO_ROOT
    )
    assert len(result.diagnostics) == 2
    assert all(d.path.endswith("exec/registry.py") for d in result.diagnostics)
    for diag in result.diagnostics:
        assert (
            "path: repro.exec.orchestrator.run_all -> "
            "repro.exec.orchestrator._worker -> "
            "repro.exec.registry.record_result" in diag.message
        )


def test_noqa_at_sink_suppresses_cross_file_diagnostic(tmp_path):
    """``reopen_cache`` is silenced by the noqa at its sink line; with
    the noqa stripped, the same multi-file diagnostic fires."""
    # as committed: the noqa'd write never appears
    result = lint_paths(
        [FLOW_FIXTURES], rules=[get_rule("REP103")], root=REPO_ROOT
    )
    assert not any("_CACHE" in d.message for d in result.diagnostics)

    # strip the suppression in a copy: the diagnostic appears
    tree = tmp_path / "repro" / "exec"
    shutil.copytree(FLOW_FIXTURES / "repro" / "exec", tree)
    registry = tree / "registry.py"
    registry.write_text(
        registry.read_text(encoding="utf-8").replace(
            "  # repro: noqa REP103  (worker-local re-open)", ""
        ),
        encoding="utf-8",
    )
    result = lint_paths(
        [tmp_path], rules=[get_rule("REP103")], root=tmp_path
    )
    cache_writes = [d for d in result.diagnostics if "_CACHE" in d.message]
    assert len(cache_writes) == 1
    assert cache_writes[0].path.endswith("registry.py")
    assert "reopen_cache" in cache_writes[0].message


def test_real_rng_module_builds_generators_in_one_helper():
    """The sanctioned module has one REP101 source: ``_generator``.

    ``RngStream.generator`` builds through it (platform events draw
    from counter-based keys and build none), so the taint tier sees a
    single creation site.
    """
    from repro.analysis.symbols import summarize_file

    src = REPO_ROOT / "src"
    summary = summarize_file(src / "repro" / "util" / "rng.py", src)
    sites = [
        (fn.qualname, site.target)
        for fn in summary.functions.values()
        for site in fn.rng_sites
    ]
    assert sites == [("repro.util.rng._generator", "numpy.random.Generator")]
    assert not summary.module_rng
