"""Tests of the benchmark's own arithmetic and tracing.

Run with: python3 -m pytest perfbench/tests
"""

import json
import os
from pathlib import Path

import pytest

import metrics
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def span(span_id, start, end, parent=None, name="x", attrs=None):
    return {"id": span_id, "name": name, "start": start, "end": end,
            "parent": parent, "trial": None, "attrs": attrs or {}}


def test_self_time_subtracts_only_direct_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, "a"),
        span("c", 2.0, 3.0, "b"),  # grandchild: counts against b, not a
        span("d", 6.0, 7.5, "a"),
    ]
    selfs = metrics.self_times(spans)
    assert selfs["a"] == pytest.approx(10.0 - 3.0 - 1.5)
    assert selfs["b"] == pytest.approx(3.0 - 1.0)
    assert selfs["c"] == pytest.approx(1.0)
    assert selfs["d"] == pytest.approx(1.5)


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        span("p", 0.0, 10.0),
        span("c1", 1.0, 5.0, "p"),
        span("c2", 3.0, 6.0, "p"),  # overlaps c1: covered is 1..6, not 4 + 3
        span("c3", 9.0, 12.0, "p"),  # runs past the parent's end
    ]
    assert metrics.self_times(spans)["p"] == pytest.approx(10.0 - 5.0 - 1.0)


@pytest.mark.parametrize(
    "n, expected_q",
    [(10, None), (99, None), (100, 90), (109, 90), (999, 90), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_q):
    samples = list(range(1, n + 1))
    result = metrics.tail_percentile(samples)
    if expected_q is None:
        assert result is None
        return
    q, value = result
    assert q == expected_q
    assert sum(1 for s in samples if s > value) >= 10


def test_tail_percentile_is_nearest_rank():
    assert metrics.tail_percentile(range(100, 0, -1)) == (90, 90)


def test_median_of_medians_ignores_cell_extremes():
    fast = [10.0, 11.0, 12.0, 500.0]  # one stalled trial
    slow = [100.0, 1.0, 101.0, 102.0]  # one oddly quick trial
    middle = [50.0, 51.0, 52.0, 53.0]
    assert metrics.median_of_medians([fast, slow, middle]) == 51.5
    assert metrics.median_of_medians([[3.0]]) == 3.0


def test_metric_names_match_pattern():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(metrics.valid_metric_name(n) for n in names)
    for bad in ("", ".lead", "has space", "slash/s", "x" * 65):
        assert not metrics.valid_metric_name(bad)


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        metrics.LAYER_METRICS
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_flops_of_one_call_at_known_topology():
    # extractor 3 -> 4 -> 2, head 4 -> 5 -> 1, 7 rows; multiply-adds per product:
    forward = 2 * (7 * 3 * 4 + 7 * 4 * 2)  # both branches
    head_forward = 7 * 4 * 5 + 7 * 5 * 1
    head_backward = 7 * 1 * 5 + 7 * 1 * 5 + 5 * 7 * 4 + 7 * 5 * 4
    extractor_backward = 2 * (2 * 7 * 4 + 7 * 2 * 4 + 4 * 7 * 3)
    macs = forward + head_forward + head_backward + extractor_backward
    assert macs == 1197
    assert metrics.loss_and_gradient_flops((3, 4, 2), 5, 7) == 2 * macs


def test_tracer_nests_spans_under_trials():
    tracer = tracing.Tracer()
    draw = tracer.wrap("data.draw", lambda: 1)
    trial = tracer.wrap(
        "harness.run_trial",
        lambda spec, arm, k, m, seed, trial_index=0, context=None: draw(),
    )
    assert trial(None, "scratch", 5, 1, 0, trial_index=3) == 1
    assert draw() == 1
    records = tracer.records()
    assert [r["name"] for r in records] == ["harness.run_trial", "data.draw", "data.draw"]
    assert records[1]["parent"] == records[0]["id"]
    assert records[2]["parent"] is None
    assert [r["trial"] for r in records] == ["scratch/k5/m1/t3", "scratch/k5/m1/t3", None]


def test_installed_restores_patched_names():
    from pairbag import harness

    original = harness.run_trial
    with tracing.installed(tracing.Tracer(), tracing.TIMER_TARGETS):
        assert harness.run_trial is not original
    assert harness.run_trial is original


def test_layer_metrics_split_pretraining_from_trial_steps():
    lag = {"rows": 10, "flops": 4_000_000, "grad_entries": 100, "grad_kept": 60}
    spans = [
        span("b", 0.0, 5.0, name="harness.build_context"),
        span("p", 0.5, 4.5, "b", name="learner.pretrain"),
        span("p1", 1.0, 2.0, "p", name="learner.loss_and_gradient",
             attrs={**lag, "grad_kept": 100}),
        span("t", 6.0, 8.0, name="harness.run_trial"),
        span("f", 6.5, 7.5, "t", name="learner.fine_tune"),
        span("s1", 6.5, 6.6, "f", name="learner.loss_and_gradient", attrs=lag),
        span("s2", 6.7, 6.8, "f", name="learner.loss_and_gradient", attrs=lag),
    ]
    got = metrics.layer_metrics(spans, rounds=1)
    assert got["learner.pretrain_steps"] == 1
    assert got["learner.steps"] == 2
    assert got["learner.loss_and_gradient_s"] == pytest.approx(0.2)
    assert got["learner.gflop_per_s"] == pytest.approx(8e6 / 0.2 / 1e9)
    assert got["learner.useful_grad_ratio"] == pytest.approx(0.6)
    assert got["harness.run_trial_self_s"] == pytest.approx(1.0)
    assert got["harness.context_builds"] == 1
    assert got["harness.build_context_s"] == pytest.approx(5.0)


def test_run_children_ends_what_a_child_leaves_behind():
    run.adopt_orphans()
    # The child exits at once and leaves a sleeping grandchild in its group.
    leaver = ("import subprocess, sys; print(subprocess.Popen("
              "[sys.executable, '-c', 'import time; time.sleep(60)'], "
              "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).pid)")
    [(_, out)] = workloads.run_children([["-c", leaver]])
    with pytest.raises(ProcessLookupError):
        os.kill(int(out), 0)
