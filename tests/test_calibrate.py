"""Tests for equal-mass binned RMS/MAD calibration errors."""

import dataclasses
import json

import numpy as np
import pytest

from pairbag.calibrate import (
    DEFAULT_BIN_COUNT,
    CalibrationReport,
    PredictionRecord,
    calibration_errors,
    records_from_scores,
)


def oracle_errors(records, bin_count=DEFAULT_BIN_COUNT):
    """Brute-force reference: explicit bin sizes and plain Python sums."""
    pairs = sorted(
        ((r.confidence, i, r.correct) for i, r in enumerate(records)),
        key=lambda p: (p[0], p[1]),
    )
    n = len(pairs)
    base, extra = divmod(n, bin_count)
    mad = 0.0
    rms_sq = 0.0
    start = 0
    for b in range(bin_count):
        size = base + (1 if b < extra else 0)
        bucket = pairs[start : start + size]
        start += size
        mean_conf = sum(p[0] for p in bucket) / size
        accuracy = sum(1.0 for p in bucket if p[2]) / size
        gap = abs(mean_conf - accuracy)
        mad += (size / n) * gap
        rms_sq += (size / n) * gap * gap
    return 100.0 * rms_sq**0.5, 100.0 * mad


def random_records(rng, n):
    """Random confidences; correctness is Bernoulli at roughly the confidence."""
    confidence = rng.uniform(0.5, 1.0, n)
    correct = rng.uniform(0, 1, n) < rng.uniform(0.3, 1.0) * confidence
    return [PredictionRecord(c, ok) for c, ok in zip(confidence, correct)]


class TestPredictionRecord:
    def test_accepts_boundary_confidences(self):
        assert PredictionRecord(0.5, True).confidence == 0.5
        assert PredictionRecord(1.0, False).confidence == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="confidence"):
            PredictionRecord(0.49, True)
        with pytest.raises(ValueError, match="confidence"):
            PredictionRecord(1.01, True)


class TestRecordsFromScores:
    def test_confidence_is_top_label_probability(self):
        records = records_from_scores(np.array([0.9, 0.2, 0.5]), np.array([1, 0, 0]))
        assert [r.confidence for r in records] == pytest.approx([0.9, 0.8, 0.5])
        # decisions: 1, 0, 1 against labels 1, 0, 0
        assert [r.correct for r in records] == [True, True, False]

    def test_array_records_calibrate_like_a_record_list(self):
        """calibration_errors gives the same report for the array-backed
        records as for the same records as a list of PredictionRecord."""
        rng = np.random.default_rng(9)
        for n in (15, 16, 200, 6061):
            scores = rng.uniform(0.0, 1.0, n)
            scores[: n // 5] = 0.5  # ties in confidence
            labels = rng.integers(0, 2, n)
            records = records_from_scores(scores, labels)
            as_list = [PredictionRecord(r.confidence, r.correct) for r in records]
            assert calibration_errors(records) == calibration_errors(as_list)

    def test_rejects_scores_outside_unit_interval(self):
        with pytest.raises(ValueError, match="scores"):
            records_from_scores(np.array([1.2]), np.array([1]))
        with pytest.raises(ValueError, match="scores"):
            records_from_scores(np.array([np.nan]), np.array([1]))

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError, match="labels"):
            records_from_scores(np.array([0.5]), np.array([2]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            records_from_scores(np.array([0.5, 0.6]), np.array([1]))


class TestCalibrationErrors:
    def test_matches_brute_force_oracle(self):
        """100 random record sets agree with the reference to 1e-12."""
        rng = np.random.default_rng(100)
        for _ in range(100):
            n = int(rng.integers(DEFAULT_BIN_COUNT, 400))
            records = random_records(rng, n)
            report = calibration_errors(records)
            rms, mad = oracle_errors(records)
            assert report.rms_error == pytest.approx(rms, abs=1e-12)
            assert report.mad_error == pytest.approx(mad, abs=1e-12)

    def test_rms_at_least_mad(self):
        """Quadratic mean dominates arithmetic mean for every record set."""
        rng = np.random.default_rng(4)
        for _ in range(50):
            records = random_records(rng, int(rng.integers(20, 200)))
            report = calibration_errors(records)
            assert report.rms_error >= report.mad_error

    def test_perfect_predictor_scores_zero(self):
        records = [PredictionRecord(1.0, True) for _ in range(60)]
        report = calibration_errors(records)
        assert report.rms_error == 0.0
        assert report.mad_error == 0.0

    def test_overconfident_half_right_scores_fifty(self):
        """Full confidence but alternating correctness lands at exactly 50%."""
        records = [PredictionRecord(1.0, i % 2 == 0) for i in range(2 * DEFAULT_BIN_COUNT * 4)]
        report = calibration_errors(records)
        assert report.rms_error == 50.0
        assert report.mad_error == 50.0

    def test_permutation_invariant(self):
        """With distinct confidences, record order cannot change the metrics."""
        rng = np.random.default_rng(9)
        confidence = rng.choice(np.linspace(0.5, 1.0, 5000), size=120, replace=False)
        correct = rng.integers(0, 2, 120).astype(bool)
        records = [PredictionRecord(c, ok) for c, ok in zip(confidence, correct)]
        report = calibration_errors(records)
        perm = rng.permutation(120)
        shuffled = calibration_errors([records[i] for i in perm])
        assert shuffled.rms_error == report.rms_error
        assert shuffled.mad_error == report.mad_error

    def test_bins_are_equal_mass(self):
        """Sizes differ by at most one; the first n mod B bins take the extra."""
        rng = np.random.default_rng(14)
        records = random_records(rng, 67)
        report = calibration_errors(records)
        counts = [c for c, _, _ in report.bins]
        assert sum(counts) == 67
        assert len(counts) == DEFAULT_BIN_COUNT
        base, extra = divmod(67, DEFAULT_BIN_COUNT)
        assert counts == [base + 1] * extra + [base] * (DEFAULT_BIN_COUNT - extra)

    def test_bins_sorted_by_confidence(self):
        rng = np.random.default_rng(15)
        records = random_records(rng, 90)
        report = calibration_errors(records)
        mean_confs = [m for _, m, _ in report.bins]
        assert mean_confs == sorted(mean_confs)

    def test_adding_perfect_bins_dilutes_both_metrics(self):
        """Appending blocks that form perfectly calibrated bins can only
        shrink the per-record weighted error."""
        miscalibrated = [PredictionRecord(0.7, i % 40 < 16) for i in range(440)]
        perfect = [PredictionRecord(1.0, True) for _ in range(160)]
        alone = calibration_errors(miscalibrated)
        combined = calibration_errors(miscalibrated + perfect)
        assert combined.mad_error < alone.mad_error
        assert combined.rms_error < alone.rms_error

    def test_single_bin_collapses_rms_to_mad(self):
        rng = np.random.default_rng(18)
        records = random_records(rng, 40)
        report = calibration_errors(records, bin_count=1)
        assert report.rms_error == report.mad_error

    def test_rejects_too_few_records(self):
        with pytest.raises(ValueError, match="at least 15"):
            calibration_errors([PredictionRecord(0.9, True)] * 14)

    def test_rejects_bad_bin_count(self):
        with pytest.raises(ValueError, match="bin_count"):
            calibration_errors([PredictionRecord(0.9, True)] * 20, bin_count=0)


class TestCalibrationReport:
    def test_rejects_rms_below_mad(self):
        with pytest.raises(ValueError, match="rms >= mad"):
            CalibrationReport(rms_error=1.0, mad_error=2.0, bins=((1, 0.9, 0.9),))

    def test_rejects_rms_above_hundred(self):
        with pytest.raises(ValueError, match="100"):
            CalibrationReport(rms_error=101.0, mad_error=1.0, bins=((1, 0.9, 0.9),))

    def test_record_round_trip(self):
        rng = np.random.default_rng(3)
        report = calibration_errors(random_records(rng, 50))
        record = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
        back = CalibrationReport.from_record(json.loads(json.dumps(record)))
        assert back.rms_error == report.rms_error
        assert back.mad_error == report.mad_error
        assert back.bins == report.bins
