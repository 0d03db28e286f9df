"""Tests for the experiment harness: splits, trials, sweeps, aggregation."""

import dataclasses
import json
import os
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairbag import blas, ensemble, harness
from pairbag.calibrate import CalibrationReport
from pairbag.data import SyntheticSpec, generate_synthetic
from pairbag.harness import (
    ARMS,
    CellSummary,
    ImprovementRow,
    LeakageError,
    TrialReport,
    build_context,
    default_benchmark,
    error_rate_improvement,
    load_reports_jsonl,
    rows_csv,
    run_experiment,
    run_trial,
    split_indices,
    summarize,
    trial_seed_for,
    write_reports_jsonl,
)
from pairbag.learner import TrainingError, head_input, init_transfer


def tiny_spec(trials=3, arms=ARMS, sizes=(1, 2)):
    source = SyntheticSpec(
        d=3, n_pos=12, n_neg=60, separation=6.0, noise_scale=0.5, seed=5
    )
    return dataclasses.replace(
        default_benchmark(),
        source=source,
        k_shots=(2,),
        ensemble_sizes=sizes,
        arms=arms,
        trials=trials,
        test_fraction=0.3,
        seed=5,
        budgets=(("scratch", 2, 5), ("transfer", 2, 5)),
        extractor_hidden=(6, 4),
        head_hidden=6,
        pretrain_budget=20,
        source_size=32,
        source_tasks=4,
    )


def make_report(trial_index, arm, k, m, accuracy):
    cal = CalibrationReport(rms_error=5.0, mad_error=4.0, bins=((15, 0.9, 0.9),))
    return TrialReport(
        trial_index=trial_index,
        arm=arm,
        k=k,
        ensemble_size=m,
        accuracy=accuracy,
        calibrations=(cal,) * m,
    )


class TestErrorRateImprovement:
    def test_headline_values(self):
        """Known error-rate pairs map to 53.3% and 27.8% within 0.05."""
        assert error_rate_improvement(10.04, 21.48) == pytest.approx(53.3, abs=0.05)
        assert error_rate_improvement(7.44, 10.3) == pytest.approx(27.8, abs=0.05)

    def test_no_change_is_zero(self):
        assert error_rate_improvement(4.2, 4.2) == 0.0

    def test_worse_is_negative(self):
        assert error_rate_improvement(2.0, 1.0) == -100.0

    def test_rejects_zero_baseline(self):
        with pytest.raises(ValueError, match="baseline"):
            error_rate_improvement(1.0, 0.0)


class TestExperimentSpec:
    def test_default_budget_table(self):
        spec = tiny_spec()
        defaults = dict(((a, k), b) for a, k, b in default_benchmark().budgets)
        assert defaults[("scratch", 5)] == 100
        assert defaults[("scratch", 50)] == 130
        assert defaults[("transfer", 5)] == 20
        assert defaults[("transfer", 50)] == 50
        assert spec.iteration_budget("scratch", 2) == 5

    def test_budget_nearest_k(self):
        spec = default_benchmark()
        assert spec.iteration_budget("scratch", 5) == 100
        assert spec.iteration_budget("scratch", 50) == 130
        assert spec.iteration_budget("scratch", 10) == 100  # closer to 5
        assert spec.iteration_budget("transfer", 40) == 50  # closer to 50

    def test_budget_tie_prefers_smaller_k(self):
        spec = dataclasses.replace(
            default_benchmark(),
            budgets=(("scratch", 10, 7), ("scratch", 20, 9), ("transfer", 10, 3)),
        )
        assert spec.iteration_budget("scratch", 15) == 7

    def test_duplicate_budget_errors(self):
        """Two budgets for one (arm, k) are an error, whichever is listed first."""
        spec = default_benchmark()
        for extra in (("scratch", 5, 200), ("scratch", 5, 7)):
            with pytest.raises(ValueError, match="duplicate budget scratch_5: one per arm"):
                dataclasses.replace(spec, budgets=spec.budgets + (extra,))

    def test_budget_missing_arm_errors(self):
        with pytest.raises(ValueError, match="no iteration budgets for arm 'transfer'"):
            dataclasses.replace(default_benchmark(), budgets=(("scratch", 5, 7),))

    @pytest.mark.parametrize(
        "row, name",
        [
            (("warm", 5, 10), "warm_5 = 10"),
            (("scratch", 0, 10), "scratch_0 = 10"),
            (("transfer", 5, -1), "transfer_5 = -1"),
        ],
    )
    def test_bad_budget_row_errors(self, row, name):
        budgets = default_benchmark().budgets + (row,)
        with pytest.raises(ValueError, match=f"bad budget {name}: need an arm in"):
            dataclasses.replace(default_benchmark(), budgets=budgets)

    def test_topology_includes_hidden_sizes(self):
        spec = tiny_spec()
        t = spec.topology(3)
        assert t.extractor_sizes == (3, 6, 4)
        assert t.head_hidden == 6

    def test_validation_errors(self):
        spec = default_benchmark()
        with pytest.raises(ValueError, match="trials"):
            dataclasses.replace(spec, trials=0)
        with pytest.raises(ValueError, match="trials must be >= 2, got 1: each cell's std"):
            dataclasses.replace(spec, trials=1)
        with pytest.raises(ValueError, match="test_fraction"):
            dataclasses.replace(spec, test_fraction=1.0)
        with pytest.raises(ValueError, match="arms"):
            dataclasses.replace(spec, arms=("scratch", "finetune"))
        with pytest.raises(ValueError, match="duplicate"):
            dataclasses.replace(spec, arms=("scratch", "scratch"))
        with pytest.raises(ValueError, match=r"duplicate k_shots in \(5, 5\)"):
            dataclasses.replace(spec, k_shots=(5, 5))
        with pytest.raises(ValueError, match=r"duplicate ensemble_sizes in \(1, 5, 1\)"):
            dataclasses.replace(spec, ensemble_sizes=(1, 5, 1))
        with pytest.raises(ValueError, match="k_shots"):
            dataclasses.replace(spec, k_shots=())
        with pytest.raises(ValueError, match="ensemble_sizes"):
            dataclasses.replace(spec, ensemble_sizes=(0,))
        with pytest.raises(ValueError, match="source_tasks"):
            dataclasses.replace(spec, source_tasks=0)
        with pytest.raises(ValueError, match="source_tasks = 1001 exceeds source_size = 1000"):
            dataclasses.replace(spec, source_tasks=1001)
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            dataclasses.replace(spec, seed=-5)
        with pytest.raises(ValueError, match=r"extractor_hidden must be positive, got \(\)"):
            dataclasses.replace(spec, extractor_hidden=())
        with pytest.raises(ValueError, match=r"extractor_hidden must be positive, got \(6, 0\)"):
            dataclasses.replace(spec, extractor_hidden=(6, 0))
        with pytest.raises(ValueError, match="head_hidden must be >= 1, got -5"):
            dataclasses.replace(spec, head_hidden=-5)
        with pytest.raises(ValueError, match=r"\(1, 6, 4\.5, 8\) must be integers"):
            dataclasses.replace(spec, extractor_hidden=(6, 4.5), head_hidden=8)
        with pytest.raises(ValueError, match=r"4\.0\) must be integers"):
            dataclasses.replace(spec, head_hidden=4.0)


class TestSplit:
    def dataset(self, n_pos=40, n_neg=100):
        return generate_synthetic(
            SyntheticSpec(d=3, n_pos=n_pos, n_neg=n_neg, separation=1.0, noise_scale=1.0, seed=8)
        )

    def test_stratified_counts(self):
        """Each class sends round(count * fraction) rows to the test side."""
        ds = self.dataset(40, 100)
        train_idx, test_idx = split_indices(ds, 0.3, 17)
        train, test = ds.subset(train_idx), ds.subset(test_idx)
        assert len(test.positives) == 12 and len(test.negatives) == 30
        assert len(train.positives) == 28 and len(train.negatives) == 70

    def test_disjoint_and_complete(self):
        ds = self.dataset()
        train_idx, test_idx = split_indices(ds, 0.25, 3)
        assert np.intersect1d(train_idx, test_idx).size == 0
        np.testing.assert_array_equal(
            np.sort(np.concatenate([train_idx, test_idx])), np.arange(len(ds))
        )

    def test_indices_sorted(self):
        ds = self.dataset()
        train_idx, test_idx = split_indices(ds, 0.25, 3)
        np.testing.assert_array_equal(train_idx, np.sort(train_idx))
        np.testing.assert_array_equal(test_idx, np.sort(test_idx))

    def test_deterministic_and_seed_sensitive(self):
        ds = self.dataset()
        a = split_indices(ds, 0.3, 1)
        b = split_indices(ds, 0.3, 1)
        c = split_indices(ds, 0.3, 2)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_rejects_fraction_that_empties_a_class(self):
        ds = self.dataset(n_pos=3, n_neg=100)
        with pytest.raises(ValueError, match="leaves a class empty"):
            split_indices(ds, 0.9, 0)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(ValueError, match="test_fraction"):
            split_indices(self.dataset(), 0.0, 0)


class TestTrialReport:
    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError, match="accuracy"):
            make_report(0, "scratch", 2, 1, 101.0)

    def test_rejects_calibration_count_mismatch(self):
        cal = CalibrationReport(rms_error=5.0, mad_error=4.0, bins=((15, 0.9, 0.9),))
        with pytest.raises(ValueError, match="calibration reports"):
            TrialReport(
                trial_index=0, arm="scratch", k=2, ensemble_size=2,
                accuracy=90.0, calibrations=(cal,),
            )

    def test_record_round_trip(self):
        report = make_report(3, "transfer", 5, 2, 87.5)
        back = TrialReport.from_record(report.to_record())
        assert back == report


class TestTrialSeeds:
    def test_distinct_across_cells_and_trials(self):
        spec = tiny_spec()
        seeds = {
            trial_seed_for(spec, arm, k, m, t)
            for arm in ARMS
            for k in (2, 5)
            for m in (1, 2)
            for t in range(5)
        }
        assert len(seeds) == 2 * 2 * 2 * 5

    def test_deterministic(self):
        spec = tiny_spec()
        assert trial_seed_for(spec, "scratch", 2, 1, 0) == trial_seed_for(
            spec, "scratch", 2, 1, 0
        )


class TestRunTrial:
    def test_deterministic(self):
        spec = tiny_spec()
        ctx = build_context(spec)
        seed = trial_seed_for(spec, "scratch", 2, 2, 0)
        a = run_trial(spec, "scratch", 2, 2, seed, trial_index=0, context=ctx)
        b = run_trial(spec, "scratch", 2, 2, seed, trial_index=0, context=ctx)
        assert a.accuracy == b.accuracy
        assert a.calibrations == b.calibrations

    def test_no_leakage_and_valid_report(self):
        spec = tiny_spec()
        ctx = build_context(spec)
        for arm in ARMS:
            report = run_trial(
                spec, arm, 2, 2, trial_seed_for(spec, arm, 2, 2, 1), trial_index=1, context=ctx
            )
            assert report.leakage_overlap == 0
            assert report.arm == arm
            assert report.ensemble_size == 2
            assert len(report.calibrations) == 2
            assert 0.0 <= report.accuracy <= 100.0

    def test_infeasible_ensemble_errors_before_training(self):
        spec = tiny_spec()
        ctx = build_context(spec)
        # train split holds 42 negatives; k=2 gives 21 chunks at most
        with pytest.raises(ValueError, match=r"infeasible cell k=2, \|M\|=22: .* only 21$"):
            run_trial(spec, "scratch", 2, 22, 0, context=ctx)

    def test_leakage_guard_fires(self):
        spec = tiny_spec()
        ctx = build_context(spec)
        leaky = dataclasses.replace(ctx, test_idx=ctx.train_idx)
        with pytest.raises(LeakageError, match="leaked into the test set"):
            run_trial(spec, "scratch", 2, 1, 0, context=leaky)

    def test_training_error_in_a_middle_member_keeps_its_message(self, monkeypatch):
        """The scoring thread has ended when the error reaches the caller."""
        spec = tiny_spec()
        ctx = build_context(spec)
        real_fine_tune = ensemble.fine_tune
        calls = []

        def fail_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise TrainingError("iteration 3: non-finite loss")
            return real_fine_tune(*args, **kwargs)

        monkeypatch.setattr(ensemble, "fine_tune", fail_second)
        threads = threading.active_count()
        with pytest.raises(
            TrainingError,
            match=r"^arm scratch, k=2, \|M\|=3, trial 4, member 2: iteration 3: non-finite loss$",
        ):
            run_trial(spec, "scratch", 2, 3, 0, trial_index=4, context=ctx)
        assert threading.active_count() == threads

    def test_scoring_error_reaches_the_caller(self, monkeypatch):
        spec = tiny_spec()
        ctx = build_context(spec)

        def broken(*args):
            raise FloatingPointError("scoring failed")

        monkeypatch.setattr(harness, "member_scores", broken)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="scoring failed"):
            run_trial(spec, "transfer", 2, 2, 0, context=ctx)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("in_worker, m", [(False, 2), (True, 2), (False, 1)])
    def test_members_are_scored_off_the_main_thread_except_in_workers_or_alone(
        self, monkeypatch, in_worker, m
    ):
        spec = tiny_spec()
        ctx = build_context(spec)
        expected = run_trial(spec, "transfer", 2, m, 7, context=ctx)
        if in_worker:
            monkeypatch.setattr(harness, "_WORKER_CTX", (spec, ctx))
        scorers = []
        real_member_scores = harness.member_scores

        def record(*args):
            scorers.append(threading.current_thread())
            return real_member_scores(*args)

        monkeypatch.setattr(harness, "member_scores", record)
        report = run_trial(spec, "transfer", 2, m, 7, context=ctx)
        assert report == expected
        on_main = [t is threading.main_thread() for t in scorers]
        assert on_main == [in_worker or m == 1] * m

    def test_concurrent_trials_under_a_short_switch_interval_match_serial_ones(self):
        """Trials sharing one context from more threads than cores, each with
        its own scoring thread, give the reports of serial runs."""
        spec = tiny_spec()
        # About 900 test rows, so that a shared scoring buffer would be overwritten.
        spec = dataclasses.replace(spec, source=dataclasses.replace(spec.source, n_neg=3000))
        ctx = build_context(spec)
        jobs = [(arm, m, t) for arm in ARMS for m in (1, 3) for t in range(6)]

        def trial(job):
            arm, m, t = job
            return run_trial(spec, arm, 2, m, trial_seed_for(spec, arm, 2, m, t), t, context=ctx)

        expected = [trial(job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                reports = list(pool.map(trial, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert reports == expected

    def test_context_holds_the_transfer_test_features(self):
        spec = tiny_spec()
        ctx = build_context(spec)
        model = init_transfer(spec.topology(ctx.test.dim), ctx.pretrained, 3)
        assert np.array_equal(ctx.test_features, head_input(model, ctx.test.pre, ctx.test.post))
        assert not ctx.test_features.flags.writeable
        assert build_context(tiny_spec(arms=("scratch",))).test_features is None

    def test_unknown_arm(self):
        spec = tiny_spec()
        with pytest.raises(ValueError, match="unknown arm"):
            run_trial(spec, "warm", 2, 1, 0, context=build_context(spec))

    @pytest.mark.parametrize(
        "budgets", [(("scratch", 2, 5), ("transfer", 2, 5)), (("scratch", 2, 5),)]
    )
    def test_arm_the_spec_does_not_run_fails_before_any_draw(self, monkeypatch, budgets):
        """With or without transfer budgets, a scratch-only spec rejects a
        transfer trial by name before it draws anything."""
        spec = dataclasses.replace(tiny_spec(arms=("scratch",)), budgets=budgets)
        ctx = build_context(spec)

        def no_draw(*args):
            raise AssertionError("drew a trial")

        monkeypatch.setattr(harness, "draw_k_shot", no_draw)
        with pytest.raises(ValueError, match=r"^unknown arm 'transfer': the spec runs \('scratch',\)$"):
            run_trial(spec, "transfer", 2, 1, 0, context=ctx)

    def test_well_separated_data_scores_high(self):
        """k=2 on strongly separated pairs still beats 90% test accuracy."""
        spec = dataclasses.replace(
            tiny_spec(sizes=(2,)), budgets=(("scratch", 2, 150), ("transfer", 2, 30))
        )
        ctx = build_context(spec)
        report = run_trial(
            spec, "scratch", 2, 2, trial_seed_for(spec, "scratch", 2, 2, 0), context=ctx
        )
        assert report.accuracy >= 90.0


# Index arrays with repeats, in any order, over a range small enough to collide.
INDICES = st.lists(st.integers(-5, 40), max_size=30).map(lambda v: np.array(v, dtype=np.int64))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rows=INDICES, test_idx=INDICES)
def test_overlap_count_is_the_intersect1d_size(rows, test_idx):
    assert harness._overlap_count(rows, test_idx) == np.intersect1d(rows, test_idx).size


class TestRunExperiment:
    def test_grid_and_canonical_order(self):
        spec = tiny_spec(trials=2)
        reports = run_experiment(spec)
        assert len(reports) == 2 * 1 * 2 * 2  # arms x k x sizes x trials
        keys = [(r.arm, r.k, r.ensemble_size, r.trial_index) for r in reports]
        assert keys == sorted(keys)

    def test_rerun_is_identical(self):
        spec = tiny_spec(trials=2, arms=("scratch",))
        a = run_experiment(spec)
        b = run_experiment(spec)
        assert [r.to_record() for r in a] == [r.to_record() for r in b]

    def test_worker_count_does_not_change_results(self):
        """Parallel execution returns byte-identical trial records."""
        spec = tiny_spec(trials=2)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert [r.to_record() for r in serial] == [r.to_record() for r in parallel]

    def test_infeasible_spec_errors_before_any_training(self, monkeypatch):
        def no_pretraining(*args):
            raise AssertionError("pretrained an extractor for an infeasible spec")

        monkeypatch.setattr(harness, "pretrain_extractor", no_pretraining)
        spec = tiny_spec(sizes=(30,))
        with pytest.raises(ValueError, match=r"infeasible cell k=2, \|M\|=30: .* only 21$"):
            run_experiment(spec)

    def test_full_dataset_is_freed_before_pretraining(self, monkeypatch):
        """build_context keeps only the train and test splits: the full
        dataset is gone by the time pretraining allocates its buffers."""
        spec = tiny_spec()
        generate, pretrain = harness.generate_synthetic, harness.pretrain_extractor
        full = []

        def remembered(synthetic):
            dataset = generate(synthetic)
            if synthetic == spec.source:
                full.append(weakref.ref(dataset))
            return dataset

        def checked(*args):
            assert len(full) == 1 and full[0]() is None, "the full dataset is still alive"
            return pretrain(*args)

        monkeypatch.setattr(harness, "generate_synthetic", remembered)
        monkeypatch.setattr(harness, "pretrain_extractor", checked)
        assert build_context(spec).pretrained is not None

    def test_parallel_sweep_pretrains_once(self, tmp_path, monkeypatch):
        """Pool workers reuse the parent's context instead of rebuilding it."""
        log = tmp_path / "pretrain-pids"
        real = harness.pretrain_extractor

        def logged(*args):
            with open(log, "a") as handle:
                handle.write(f"{os.getpid()}\n")
            return real(*args)

        monkeypatch.setattr(harness, "pretrain_extractor", logged)
        run_experiment(tiny_spec(), workers=2)
        assert log.read_text().splitlines() == [str(os.getpid())]

    def test_pool_asks_for_no_more_workers_than_jobs(self, monkeypatch):
        """A fork pool starts every worker it may have at the first submit."""
        asked = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                asked.append(max_workers)
                monkeypatch.setattr(harness, "_WORKER_CTX", initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        reports = run_experiment(tiny_spec(trials=2, arms=("scratch",), sizes=(1,)), workers=64)
        assert asked == [2] and len(reports) == 2

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            run_experiment(tiny_spec(), workers=0)

    def test_restores_the_callers_blas_threads_when_it_raises(self, two_blas_threads):
        with pytest.raises(ValueError, match="infeasible cell"):
            run_experiment(tiny_spec(sizes=(30,)))
        assert blas.threads() == 2

    def test_context_and_pool_workers_run_one_blas_thread(self, two_blas_threads, monkeypatch):
        """The caller runs two BLAS threads; the context build and every
        forked worker's trials run one."""
        seen = []
        real_build = harness.build_context

        def build(spec):
            seen.append(blas.threads())
            return real_build(spec)

        def trial(spec, arm, k, m, seed, trial_index, context):
            return make_report(trial_index, arm, k, m, float(blas.threads()))

        monkeypatch.setattr(harness, "build_context", build)
        monkeypatch.setattr(harness, "run_trial", trial)
        reports = run_experiment(tiny_spec(trials=2, arms=("scratch",)), workers=2)
        assert seen == [1] and [r.accuracy for r in reports] == [1.0] * 4
        assert blas.threads() == 2

    def test_without_thread_control_says_so(self, monkeypatch, caplog):
        monkeypatch.setattr(blas, "_library", lambda: None)
        with caplog.at_level("INFO", logger="pairbag"), pytest.raises(ValueError):
            run_experiment(tiny_spec(sizes=(30,)))
        assert "no OpenBLAS thread control found" in caplog.text


class TestSummarize:
    def test_known_cell_statistics(self):
        """Accuracies 90, 92, 94 give mean 92 and sample std exactly 2."""
        reports = [make_report(t, "scratch", 2, 1, acc) for t, acc in enumerate((90.0, 92.0, 94.0))]
        summary = summarize(reports)
        cell = summary.cell("scratch", 2, 1)
        assert cell.mean_acc == 92.0
        assert cell.std_acc == 2.0
        assert cell.mean_error == pytest.approx(8.0)
        assert cell.mean_rms_cal == 5.0 and cell.std_rms_cal == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(44)
        accs = rng.uniform(50, 100, 30)
        reports = [make_report(t, "scratch", 2, 1, float(a)) for t, a in enumerate(accs)]
        cell = summarize(reports).cell("scratch", 2, 1)
        mean = sum(accs) / len(accs)
        var = sum((a - mean) ** 2 for a in accs) / (len(accs) - 1)
        assert cell.mean_acc == pytest.approx(mean, abs=1e-10)
        assert cell.std_acc == pytest.approx(var**0.5, abs=1e-10)

    def calibrated_reports(self, rms_mad_pairs):
        """One scratch k=2 |M|=1 report per (rms, mad) pair, trial by trial."""
        return [
            dataclasses.replace(
                make_report(t, "scratch", 2, 1, 80.0),
                calibrations=(CalibrationReport(rms, mad, ((15, 0.9, 0.9),)),),
            )
            for t, (rms, mad) in enumerate(rms_mad_pairs)
        ]

    def test_identical_calibrations_have_zero_std(self):
        cell = summarize(self.calibrated_reports([(10.0, 8.0)] * 2)).cell("scratch", 2, 1)
        assert cell.mean_rms_cal == 10.0 and cell.std_rms_cal == 0.0
        assert cell.mean_mad_cal == 8.0 and cell.std_mad_cal == 0.0

    def test_known_calibration_statistics(self):
        """RMS errors 1, 2, 3 give mean 2 and sample std exactly 1."""
        cell = summarize(self.calibrated_reports([(float(v), 0.0) for v in (1, 2, 3)])).cells[0]
        assert cell.mean_rms_cal == 2.0 and cell.std_rms_cal == 1.0
        assert cell.mean_mad_cal == 0.0 and cell.std_mad_cal == 0.0

    def test_calibration_statistics_match_two_pass_oracle(self):
        """Each member's errors count once; a two-pass mean/std agrees to 1e-10."""
        rng = np.random.default_rng(31)
        pairs = []
        for _ in range(200):
            mad = float(rng.uniform(0, 40))
            pairs.append((mad + float(rng.uniform(0, 10)), mad))
        cell = summarize(self.calibrated_reports(pairs)).cells[0]
        for column, values in zip(("rms_cal", "mad_cal"), zip(*pairs)):
            mean = sum(values) / len(values)
            var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
            assert getattr(cell, f"mean_{column}") == pytest.approx(mean, abs=1e-10)
            assert getattr(cell, f"std_{column}") == pytest.approx(var**0.5, abs=1e-10)

    def test_single_report_with_many_members_is_an_error(self):
        """Three members' calibration errors are still one trial's."""
        report = make_report(0, "scratch", 2, 3, 80.0)
        with pytest.raises(ValueError, match="has 1 reports, need >= 2"):
            summarize([report])

    def test_improvement_rows_match_cell_errors(self):
        reports = []
        for t in range(2):
            reports.append(make_report(t, "scratch", 2, 1, 80.0))
            reports.append(make_report(t, "scratch", 2, 2, 90.0))
            reports.append(make_report(t, "transfer", 2, 1, 84.0))
            reports.append(make_report(t, "transfer", 2, 2, 95.0))
        summary = summarize(reports)
        kinds = {(r.kind, r.arm, r.k, r.from_size, r.to_size) for r in summary.improvements}
        assert ("ensemble", "scratch", 2, 1, 2) in kinds
        assert ("ensemble", "transfer", 2, 1, 2) in kinds
        assert ("transfer", "transfer", 2, 1, 1) in kinds
        assert ("transfer", "transfer", 2, 2, 2) in kinds
        for row in summary.improvements:
            if row.kind == "ensemble":
                base = summary.cell(row.arm, row.k, row.from_size)
                best = summary.cell(row.arm, row.k, row.to_size)
            else:
                base = summary.cell("scratch", row.k, row.from_size)
                best = summary.cell("transfer", row.k, row.to_size)
            assert row.improvement == pytest.approx(
                error_rate_improvement(best.mean_error, base.mean_error), abs=1e-12
            )
            assert row.describe()

    def test_scratch_sorts_before_transfer(self):
        reports = []
        for t in range(2):
            reports.append(make_report(t, "transfer", 2, 1, 84.0))
            reports.append(make_report(t, "scratch", 2, 1, 80.0))
        cells = summarize(reports).cells
        assert [c.arm for c in cells] == ["scratch", "transfer"]

    def test_missing_cell_is_an_error(self):
        reports = [
            make_report(0, "scratch", 2, 1, 80.0),
            make_report(1, "scratch", 2, 1, 82.0),
            make_report(0, "scratch", 5, 2, 90.0),
            make_report(1, "scratch", 5, 2, 91.0),
        ]
        with pytest.raises(ValueError, match=r"cell \(arm=scratch, k=2, ensemble_size=2\)"):
            summarize(reports)

    def test_repeated_trial_is_an_error(self):
        """Two reports of one trial of a cell are one trial counted twice."""
        reports = [make_report(t, "scratch", 2, 1, acc) for t, acc in enumerate((80.0, 90.0))]
        with pytest.raises(
            ValueError, match=r"duplicate trial 1 in cell \(arm=scratch, k=2, ensemble_size=1\)"
        ):
            summarize(reports + reports[1:])

    def test_single_report_cell_is_an_error(self):
        with pytest.raises(ValueError, match="need >= 2"):
            summarize([make_report(0, "scratch", 2, 1, 80.0)])

    def test_empty_reports_error(self):
        with pytest.raises(ValueError, match="no trial reports"):
            summarize([])


class TestResultsFiles:
    def test_jsonl_round_trip(self, tmp_path):
        spec = tiny_spec(trials=2, arms=("scratch",), sizes=(1,))
        reports = run_experiment(spec)
        path = tmp_path / "results.jsonl"
        write_reports_jsonl(reports, path)
        loaded = load_reports_jsonl(path)
        assert [r.to_record() for r in loaded] == [r.to_record() for r in reports]

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "results.jsonl"
        good = make_report(0, "scratch", 2, 1, 80.0)
        path.write_text(json.dumps(good.to_record()) + "\n{broken\n")
        with pytest.raises(ValueError, match="line 2"):
            load_reports_jsonl(path)

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="no trial reports"):
            load_reports_jsonl(path)

    def test_summary_csv_shape(self):
        reports = []
        for t in range(2):
            for m in (1, 2):
                reports.append(make_report(t, "scratch", 2, m, 80.0 + t))
        text = rows_csv(CellSummary, summarize(reports).cells)
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(f.name for f in dataclasses.fields(CellSummary))
        assert len(lines) == 1 + 2  # one row per (arm, k, size) cell

    def test_record_holds_every_field(self):
        report = make_report(0, "scratch", 2, 1, 80.0)
        record = report.to_record()
        assert list(record) == [f.name for f in dataclasses.fields(TrialReport)]
        assert record["calibrations"][0] == {
            f.name: getattr(report.calibrations[0], f.name)
            for f in dataclasses.fields(CalibrationReport)
        }

    def test_rows_csv_writes_strings_as_is_and_the_rest_by_repr(self):
        row = ImprovementRow("ensemble", "scratch", 5, 1, 20, 0.1 + 0.2)
        assert rows_csv(ImprovementRow, [row]) == (
            "kind,arm,k,from_size,to_size,improvement\n"
            "ensemble,scratch,5,1,20,0.30000000000000004\n"
        )

    def test_summary_csv_floats_round_trip(self):
        reports = [make_report(t, "scratch", 2, 1, 80.0 + 1e-9 * t) for t in range(3)]
        summary = summarize(reports)
        line = rows_csv(CellSummary, summary.cells).strip().splitlines()[1]
        mean_acc = float(line.split(",")[3])
        assert mean_acc == summary.cells[0].mean_acc
