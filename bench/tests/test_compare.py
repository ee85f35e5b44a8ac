from bench.compare import (
    BETTER,
    CHANGED,
    SAME,
    UNRESOLVED,
    WORSE,
    compare,
    failed_rows,
    format_rows,
    verdict,
)

SPEC = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    ],
}


def test_moves_within_the_bound_are_the_same():
    assert verdict([100.0, 101.0, 99.0], [105.0, 104.0, 106.0], 0.10) == SAME


def test_moves_past_the_bound_are_worse_or_better():
    assert verdict([100.0, 101.0, 99.0], [120.0, 121.0, 119.0], 0.10) == WORSE
    assert verdict([100.0, 101.0, 99.0], [80.0, 81.0, 79.0], 0.10) == BETTER
    assert verdict([100.0, 101.0], [80.0, 81.0], 0.10, better="higher") == WORSE


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [100.0, 60.0, 140.0, 100.0]
    assert verdict(noisy, [104.0, 103.0, 105.0], 0.10) == UNRESOLVED
    assert verdict([100.0, 101.0, 99.0], noisy, 0.10) == UNRESOLVED


def test_a_noisy_metric_is_better_when_every_run_of_b_beats_every_run_of_a():
    a = [100.0, 60.0, 140.0, 100.0]
    assert verdict(a, [50.0, 30.0, 20.0, 40.0], 0.10) == BETTER
    assert verdict(a, [150.0, 170.0], 0.10, better="higher") == BETTER


def test_single_runs_have_no_spread():
    assert verdict([100.0], [130.0], 0.10) == WORSE


def _run(p50, digest="d1", attempted=10, failed=0, layer=1.0):
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "p50_ms": {"value": p50, "unit": "ms", "n": 10},
            "core.self_pct": {"value": layer, "unit": "%", "n": 1},
        },
        "outputs": {"outputs_digest": digest, "sim_makespan_s": 3.5},
    }


def test_compare_rows_judge_metrics_outputs_and_failures():
    a = {"workloads": {"cluster_plan": [_run(100.0), _run(101.0)]}}
    b = {"workloads": {"cluster_plan": [_run(99.0, layer=2.0), _run(100.0, layer=2.0)]}}
    rows = {row[1]: row for row in compare(SPEC, a, b)}
    assert rows["p50_ms"][4] == SAME
    assert rows["fail_frac"][4] == SAME
    assert rows["outputs_digest"][4] == SAME
    assert rows["core.self_pct"][2:] == (1.0, 2.0, None)  # printed, not judged
    assert "ops_per_s" not in rows  # not measured: no row
    assert failed_rows(list(rows.values())) == []


def test_changed_outputs_and_rising_failures_fail_the_comparison():
    a = {"workloads": {"online_runtime": [_run(100.0)]}}
    b = {"workloads": {"online_runtime": [_run(100.0, digest="d2", failed=1)]}}
    rows = compare(SPEC, a, b)
    verdicts = {row[1]: row[4] for row in rows}
    assert verdicts["outputs_digest"] == CHANGED
    assert verdicts["fail_frac"] == WORSE
    assert len(failed_rows(rows)) == 2
    assert "CHANGED" in format_rows(rows)


def test_outputs_that_differ_between_runs_of_one_file_are_changed():
    a = {"workloads": {"paper_repro": [_run(100.0), _run(100.0, digest="d9")]}}
    rows = compare(SPEC, a, a)
    assert {row[1]: row[4] for row in rows}["outputs_digest"] == CHANGED
