"""RMS and MAD calibration errors over equal-mass confidence bins.

A prediction record pairs a top-label confidence max(score, 1 - score) with
whether the hard decision was right. Records are sorted by confidence and
split into equal-mass bins; each bin contributes its gap between mean
confidence and empirical accuracy, weighted by bin mass. MAD is the weighted
mean of the gaps, RMS the weighted quadratic mean, both in percent, so
RMS >= MAD always (power-mean inequality).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_BIN_COUNT = 15


@dataclass(frozen=True)
class PredictionRecord:
    """Top-label confidence of one prediction and whether it was correct."""

    confidence: float
    correct: bool

    def __post_init__(self) -> None:
        c = float(self.confidence)
        if not 0.5 <= c <= 1.0:
            raise ValueError(f"confidence must lie in [0.5, 1], got {c}")
        object.__setattr__(self, "confidence", c)
        object.__setattr__(self, "correct", bool(self.correct))


@dataclass(frozen=True)
class CalibrationReport:
    """RMS and MAD calibration errors in percent plus the per-bin table.

    bins holds (count, mean confidence, empirical accuracy) per bin, in
    confidence order; counts sum to the number of records measured.
    """

    rms_error: float
    mad_error: float
    bins: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.mad_error <= self.rms_error:
            raise ValueError(
                f"need rms >= mad >= 0, got rms={self.rms_error} mad={self.mad_error}"
            )
        if self.rms_error > 100.0:
            raise ValueError(f"rms error above 100 percent: {self.rms_error}")
        object.__setattr__(self, "bins", tuple(tuple(b) for b in self.bins))

    @classmethod
    def from_record(cls, record: dict) -> "CalibrationReport":
        return cls(
            rms_error=float(record["rms_error"]),
            mad_error=float(record["mad_error"]),
            bins=tuple((operator.index(c), float(m), float(a)) for c, m, a in record["bins"]),
        )


def records_from_scores(scores: np.ndarray, labels: np.ndarray) -> np.recarray:
    """Turn scorer outputs in [0, 1] plus true 0/1 labels into a record array
    with fields `confidence` and `correct`, one record per score.

    The hard decision is score >= 0.5; confidence is max(score, 1 - score).
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise ValueError(f"scores shape {s.shape} does not match labels {y.shape}")
    if not ((s >= 0.0) & (s <= 1.0)).all():
        raise ValueError("scores must lie in [0, 1]")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    correct = (s >= 0.5) == (y == 1)
    return np.rec.fromarrays([np.maximum(s, 1.0 - s), correct], names="confidence,correct")


def calibration_errors(
    records: Sequence[PredictionRecord], bin_count: int = DEFAULT_BIN_COUNT
) -> CalibrationReport:
    """Equal-mass binned calibration errors, in percent.

    records is what records_from_scores returns or a sequence of PredictionRecord.
    Records are stably sorted by confidence and split into bin_count bins
    whose sizes differ by at most one (the first n mod bin_count bins take
    the extra record). Per bin b: g_b = |mean confidence - accuracy|;
    MAD = sum (n_b/n) g_b, RMS = sqrt(sum (n_b/n) g_b^2).
    """
    if bin_count < 1:
        raise ValueError(f"bin_count must be >= 1, got {bin_count}")
    n = len(records)
    if n < bin_count:
        raise ValueError(f"need at least {bin_count} records, got {n}")
    if isinstance(records, np.recarray):
        confidence = records.confidence
        correct = records.correct.astype(np.float64)
    else:
        confidence = np.array([r.confidence for r in records], dtype=np.float64)
        correct = np.array([r.correct for r in records], dtype=np.float64)
    order = np.argsort(confidence, kind="stable")
    bins = []
    gap_sum = 0.0
    gap_sq_sum = 0.0
    for idx in np.array_split(order, bin_count):
        count = idx.size
        mean_conf = float(confidence[idx].mean())
        accuracy = float(correct[idx].mean())
        gap = abs(mean_conf - accuracy)
        gap_sum += count * gap
        gap_sq_sum += count * gap * gap
        bins.append((int(count), mean_conf, accuracy))
    mad = 100.0 * gap_sum / n
    rms = 100.0 * np.sqrt(gap_sq_sum / n)
    # ties all gaps equal can round sqrt a ulp under mad
    rms = max(rms, mad)
    return CalibrationReport(rms_error=float(rms), mad_error=float(mad), bins=tuple(bins))
