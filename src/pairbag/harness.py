"""Experiment orchestration: seeded k-shot trials, arm sweeps, aggregation.

An experiment fixes one dataset and one stratified holdout split, then runs
many independent trials over (arm, k, ensemble size) cells. Each trial draws
its own k-shot positives and negative chunk assignment from a seed derived
from the master seed and the cell coordinates, so results are independent of
execution order and worker count. Summaries report sample mean/std per cell
plus error-rate improvement rows in the style of the headline comparisons.
An experiment's spec is built from the packaged default.ini, overlaid with
an optional INI file (load_config, build_spec).
"""

from __future__ import annotations

import configparser
import dataclasses
import itertools
import json
import logging
import os
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from pairbag import blas
from pairbag.calibrate import (
    CalibrationReport,
    aggregate_calibration,
    calibration_errors,
    records_from_scores,
)
from pairbag.data import (
    PairDataset, SyntheticSpec, draw_k_shot, generate_synthetic, load_manifest, read_utf8,
)
from pairbag.ensemble import member_scores, train_ensemble
from pairbag.learner import (
    ARMS,
    PretrainedExtractor,
    SiameseTopology,
    TrainingError,
    head_input,
    init_transfer,
    pretrain_extractor,
)
from pairbag.optimize import TrainConfig
from pairbag.partition import assign_chunks, base_training_set, make_chunk_plan
from pairbag.seeding import (
    ASSIGN_STREAM,
    DRAW_STREAM,
    PLAN_STREAM,
    PRETRAIN_STREAM,
    SOURCE_STREAM,
    SPLIT_STREAM,
    TRAIN_STREAM,
    TRIAL_STREAM,
    derive_seed,
)

log = logging.getLogger(__name__)


class LeakageError(AssertionError):
    """Raised when a base-model training set touches the held-out test set."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to rerun an experiment bit-for-bit.

    Its defaults live in default.ini; build_spec reads them. source is a
    SyntheticSpec or a manifest path. train holds both arms' hyperparameters;
    its iterations and seed are set per trial. extractor_hidden are the
    extractor's hidden widths between the input and feature layers; budgets
    are (arm, k, iterations) triples, looked up by nearest k per arm, and
    every arm in arms needs one.
    """

    source: SyntheticSpec | str
    k_shots: tuple[int, ...]
    ensemble_sizes: tuple[int, ...]
    arms: tuple[str, ...]
    trials: int
    test_fraction: float
    seed: int
    train: TrainConfig
    budgets: tuple[tuple[str, int, int], ...]
    extractor_hidden: tuple[int, ...]
    head_hidden: int
    pretrain_budget: int
    source_size: int
    source_tasks: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "k_shots", tuple(int(k) for k in self.k_shots))
        object.__setattr__(self, "ensemble_sizes", tuple(int(m) for m in self.ensemble_sizes))
        object.__setattr__(self, "arms", tuple(self.arms))
        object.__setattr__(self, "extractor_hidden", tuple(int(h) for h in self.extractor_hidden))
        object.__setattr__(
            self, "budgets", tuple((a, int(k), int(b)) for a, k, b in self.budgets)
        )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.trials < 2:
            raise ValueError(
                f"trials must be >= 2, got {self.trials}: each cell's std needs two trials"
            )
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if not self.k_shots or any(k < 1 for k in self.k_shots):
            raise ValueError(f"k_shots must be positive, got {self.k_shots}")
        if not self.ensemble_sizes or any(m < 1 for m in self.ensemble_sizes):
            raise ValueError(f"ensemble_sizes must be positive, got {self.ensemble_sizes}")
        if not self.arms or any(a not in ARMS for a in self.arms):
            raise ValueError(f"arms must be a nonempty subset of {ARMS}, got {self.arms}")
        if not self.extractor_hidden or any(h < 1 for h in self.extractor_hidden):
            raise ValueError(f"extractor_hidden must be positive, got {self.extractor_hidden}")
        if self.head_hidden < 1:
            raise ValueError(f"head_hidden must be >= 1, got {self.head_hidden}")
        for name in ("arms", "k_shots", "ensemble_sizes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {values}")
        for arm, k, iterations in self.budgets:
            if arm not in ARMS or k < 1 or iterations < 0:
                raise ValueError(
                    f"bad budget {arm}_{k} = {iterations}: need an arm in {ARMS}, "
                    "k >= 1 and iterations >= 0"
                )
        for arm in self.arms:
            if all(row[0] != arm for row in self.budgets):
                raise ValueError(f"no iteration budgets for arm {arm!r}")
        if self.pretrain_budget < 0 or self.source_size < 1:
            raise ValueError("pretrain_budget must be >= 0 and source_size >= 1")
        if self.source_tasks < 1:
            raise ValueError(f"source_tasks must be >= 1, got {self.source_tasks}")
        if self.source_tasks > self.source_size:
            raise ValueError(
                f"source_tasks = {self.source_tasks} exceeds source_size = "
                f"{self.source_size}: each source task needs at least one pair per class"
            )

    def topology(self, input_dim: int) -> SiameseTopology:
        sizes = (input_dim,) + self.extractor_hidden
        return SiameseTopology(extractor_sizes=sizes, head_hidden=self.head_hidden)

    def iteration_budget(self, arm: str, k: int) -> int:
        """Budget for the nearest tabulated k on this arm (ties: smaller k)."""
        rows = [(bk, b) for a, bk, b in self.budgets if a == arm]
        if not rows:
            raise ValueError(f"no iteration budgets for arm {arm!r}")
        return min(rows, key=lambda r: (abs(r[0] - k), r[0]))[1]


# --- configuration -------------------------------------------------------------


def load_config(path: str | None) -> configparser.ConfigParser:
    """The packaged default.ini, overlaid with the user's UTF-8 INI file if given.

    default.ini is the schema: a section or key it does not list is an
    error, except that [budgets] takes any <arm>_<k> key with arm in ARMS
    and k a positive integer.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(resources.files("pairbag").joinpath("default.ini").read_text())
    schema = {section: set(parser[section]) for section in parser.sections()}
    if path is not None:
        parser.read_string(read_utf8(path, "config"), source=str(path))
    if parser.defaults():
        raise ValueError(f"unknown key(s) in [DEFAULT]: {', '.join(parser.defaults())}")
    for section in parser.sections():
        if section not in schema:
            raise ValueError(f"unknown config section [{section}]")
        for key in parser[section]:
            if section == "budgets":
                _budget_key(key)
            elif key not in schema[section]:
                raise ValueError(f"unknown key {key!r} in [{section}]")
    return parser


def _budget_key(key: str) -> tuple[str, int]:
    """(arm, k) of a [budgets] key; ValueError unless it reads <arm>_<k>."""
    arm, _, k = key.rpartition("_")
    if arm not in ARMS or not k.isdecimal() or int(k) < 1:
        raise ValueError(
            f"bad key {key!r} in [budgets]: expected <arm>_<k> with arm "
            f"in {', '.join(ARMS)} and k a positive integer"
        )
    return arm, int(k)


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _read(section: configparser.SectionProxy, key: str, parse=str):
    """section[key] through parse; a parse error names the section and key."""
    try:
        return parse(section[key])
    except (ValueError, configparser.InterpolationError) as exc:
        raise ValueError(f"[{section.name}] {key}: {exc}") from None


def _seed(cfg: configparser.ConfigParser, seed: int | None) -> int:
    """The flag's seed when given, else the config's [experiment] seed."""
    return seed if seed is not None else _read(cfg["experiment"], "seed", int)


def _budgets(cfg: configparser.ConfigParser) -> tuple[tuple[str, int, int], ...]:
    budgets = cfg["budgets"]
    return tuple(sorted((*_budget_key(key), _read(budgets, key, int)) for key in budgets))


def _synthetic_spec(cfg: configparser.ConfigParser, seed: int | None) -> SyntheticSpec:
    data = cfg["data"]
    return SyntheticSpec(
        d=_read(data, "d", int),
        n_pos=_read(data, "n_pos", int),
        n_neg=_read(data, "n_neg", int),
        separation=_read(data, "separation", float),
        noise_scale=_read(data, "noise_scale", float),
        seed=_seed(cfg, seed),
    )


def build_spec(
    cfg: configparser.ConfigParser,
    seed: int | None = None,
    trials: int | None = None,
) -> ExperimentSpec:
    """Translate an INI config (plus flag overrides) into an ExperimentSpec."""
    exp, train, model = cfg["experiment"], cfg["train"], cfg["model"]
    master_seed = _seed(cfg, seed)
    manifest = _read(cfg["data"], "manifest").strip()
    return ExperimentSpec(
        source=manifest if manifest else _synthetic_spec(cfg, master_seed),
        k_shots=_read(exp, "k_shots", _int_list),
        ensemble_sizes=_read(exp, "ensemble_sizes", _int_list),
        arms=_read(exp, "arms", _str_list),
        trials=trials if trials is not None else _read(exp, "trials", int),
        test_fraction=_read(exp, "test_fraction", float),
        seed=master_seed,
        train=TrainConfig(
            iterations=0,
            learning_rate=_read(train, "learning_rate", float),
            alpha=_read(train, "alpha", float),
            adam_beta1=_read(train, "adam_beta1", float),
            adam_beta2=_read(train, "adam_beta2", float),
            adam_eps=_read(train, "adam_eps", float),
        ),
        budgets=_budgets(cfg),
        extractor_hidden=_read(model, "extractor_hidden", _int_list),
        head_hidden=_read(model, "head_hidden", int),
        pretrain_budget=_read(exp, "pretrain_budget", int),
        source_size=_read(exp, "source_size", int),
        source_tasks=_read(exp, "source_tasks", int),
    )


def default_benchmark(
    trials: int = 50, seed: int | None = None, n_neg: int | None = None
) -> ExperimentSpec:
    """default.ini's experiment with `trials` trials; seed and n_neg, when
    given, replace the file's master seed and negative count."""
    spec = build_spec(load_config(None), seed=seed, trials=trials)
    if n_neg is not None:
        spec = dataclasses.replace(spec, source=dataclasses.replace(spec.source, n_neg=n_neg))
    return spec


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one trial: one ensemble trained and evaluated once."""

    trial_index: int
    arm: str
    k: int
    ensemble_size: int
    accuracy: float
    calibrations: tuple[CalibrationReport, ...]
    leakage_overlap: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 100.0:
            raise ValueError(f"accuracy must lie in [0, 100], got {self.accuracy}")
        if len(self.calibrations) != self.ensemble_size:
            raise ValueError(
                f"{len(self.calibrations)} calibration reports for "
                f"{self.ensemble_size} base models"
            )
        object.__setattr__(self, "calibrations", tuple(self.calibrations))

    def to_record(self) -> dict:
        """The fields as a JSON-ready dict; each calibration is a dict of its fields."""
        record = _field_dict(self)
        record["calibrations"] = [_field_dict(c) for c in self.calibrations]
        return record

    @classmethod
    def from_record(cls, record: dict) -> "TrialReport":
        return cls(
            trial_index=int(record["trial_index"]),
            arm=str(record["arm"]),
            k=int(record["k"]),
            ensemble_size=int(record["ensemble_size"]),
            accuracy=float(record["accuracy"]),
            calibrations=tuple(
                CalibrationReport.from_record(c) for c in record["calibrations"]
            ),
            leakage_overlap=int(record["leakage_overlap"]),
        )


@dataclass(frozen=True)
class CellSummary:
    """Sample statistics for one (arm, k, ensemble size) cell."""

    arm: str
    k: int
    ensemble_size: int
    mean_acc: float
    std_acc: float
    mean_rms_cal: float
    std_rms_cal: float
    mean_mad_cal: float
    std_mad_cal: float

    @property
    def mean_error(self) -> float:
        return 100.0 - self.mean_acc


@dataclass(frozen=True)
class ImprovementRow:
    """One error-rate-improvement comparison between two summary cells.

    kind "ensemble": same arm and k, |M| grows from from_size to to_size.
    kind "transfer": same k and |M|, scratch errors against transfer errors.
    """

    kind: str
    arm: str
    k: int
    from_size: int
    to_size: int
    improvement: float

    def describe(self) -> str:
        if self.kind == "ensemble":
            return (
                f"{self.arm} k={self.k}: |M|={self.from_size} -> |M|={self.to_size} "
                f"error improved {self.improvement:.1f}%"
            )
        return (
            f"k={self.k} |M|={self.to_size}: scratch -> transfer "
            f"error improved {self.improvement:.1f}%"
        )


def _cell_name(arm: str, k: int, ensemble_size: int) -> str:
    return f"(arm={arm}, k={k}, ensemble_size={ensemble_size})"


@dataclass(frozen=True)
class SweepSummary:
    """Per-cell statistics over a full (arm, k, |M|) grid, plus its improvements.

    The axes are the sorted arms (scratch before transfer), k values and
    ensemble sizes of the cells. Every combination of them needs a cell, or
    construction raises ValueError naming the first one missing. Cells keep
    the order they are given in.
    """

    cells: tuple[CellSummary, ...]
    arms: tuple[str, ...] = field(init=False)
    ks: tuple[int, ...] = field(init=False)
    sizes: tuple[int, ...] = field(init=False)
    improvements: tuple[ImprovementRow, ...] = field(init=False)
    _by_key: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("a sweep summary needs at least one cell")
        by_key = {(c.arm, c.k, c.ensemble_size): c for c in cells}
        axes = [tuple(sorted(set(axis))) for axis in zip(*by_key)]
        for key in itertools.product(*axes):
            if key not in by_key:
                raise ValueError(f"incomplete grid: no cell {_cell_name(*key)}")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_by_key", by_key)
        for name, axis in zip(("arms", "ks", "sizes"), axes):
            object.__setattr__(self, name, axis)
        object.__setattr__(self, "improvements", self._improvement_rows())

    def cell(self, arm: str, k: int, ensemble_size: int) -> CellSummary:
        try:
            return self._by_key[(arm, k, ensemble_size)]
        except KeyError:
            raise KeyError(f"no cell {_cell_name(arm, k, ensemble_size)}") from None

    def _improvement_rows(self) -> tuple[ImprovementRow, ...]:
        """Ensemble-gain and transfer-gain rows over the grid.

        Ensemble rows compare the smallest and largest |M| per arm and k;
        transfer rows compare scratch with transfer per k and |M|. A baseline
        cell with zero error gives no row.
        """
        small, large = self.sizes[0], self.sizes[-1]
        pairs = []  # (kind, arm, k, baseline cell key, compared cell key)
        if small != large:
            pairs += [
                ("ensemble", arm, k, (arm, k, small), (arm, k, large))
                for arm in self.arms
                for k in self.ks
            ]
        if "scratch" in self.arms and "transfer" in self.arms:
            pairs += [
                ("transfer", "transfer", k, ("scratch", k, m), ("transfer", k, m))
                for k in self.ks
                for m in self.sizes
            ]
        rows = []
        for kind, arm, k, old, new in pairs:
            base = self._by_key[old].mean_error
            if base > 0.0:
                rows.append(
                    ImprovementRow(
                        kind=kind,
                        arm=arm,
                        k=k,
                        from_size=old[2],
                        to_size=new[2],
                        improvement=error_rate_improvement(self._by_key[new].mean_error, base),
                    )
                )
        return tuple(rows)


def error_rate_improvement(e_new: float, e_old: float) -> float:
    """Percent improvement of error rate e_new over baseline e_old.

    Both arguments are error rates in percent; returns 100 * (1 - e_new/e_old).
    """
    if e_old <= 0.0:
        raise ValueError(f"baseline error rate must be > 0, got {e_old}")
    return 100.0 * (1.0 - e_new / e_old)


def split_indices(
    dataset: PairDataset, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices (train, test) of the stratified holdout split.

    Per class, round(count * fraction) rows go to test; both splits must
    keep both classes or the fraction is rejected.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls_indices in (dataset.positives, dataset.negatives):
        n = len(cls_indices)
        n_test = round(n * test_fraction)
        if n_test < 1 or n_test >= n:
            raise ValueError(
                f"test_fraction {test_fraction} leaves a class empty "
                f"(class size {n}, test share {n_test})"
            )
        shuffled = rng.permutation(cls_indices)
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


@dataclass(frozen=True, eq=False)
class ExperimentContext:
    """Holdout split, pretrained extractor and test head input shared by every trial."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    train: PairDataset
    test: PairDataset
    pretrained: PretrainedExtractor | None
    test_features: np.ndarray | None


def _check_feasible(train: PairDataset, k_shots, ensemble_sizes) -> None:
    """Raise ValueError unless every (k, |M|) cell fits in the train split:
    k positives, and |M| disjoint chunks of k negatives."""
    n_neg = len(train.negatives)
    n_pos = len(train.positives)
    for k in k_shots:
        if k > n_pos:
            raise ValueError(f"k={k} exceeds the {n_pos} train positives")
        capacity = n_neg // k
        for m in ensemble_sizes:
            if m > capacity:
                raise ValueError(
                    f"infeasible cell k={k}, |M|={m}: needs {m} chunks but the "
                    f"train split holds only {capacity}"
                )


def build_context(spec: ExperimentSpec) -> ExperimentContext:
    """Materialize the dataset, the holdout split, and the frozen extractor.

    Raises ValueError before pretraining if some grid cell cannot fit its
    ensemble in the train split.
    """
    if isinstance(spec.source, SyntheticSpec):
        dataset = generate_synthetic(spec.source)
    else:
        dataset = load_manifest(spec.source)
    split_seed = derive_seed(spec.seed, SPLIT_STREAM)
    train_idx, test_idx = split_indices(dataset, spec.test_fraction, split_seed)
    train = dataset.subset(train_idx)
    test = dataset.subset(test_idx)
    _check_feasible(train, spec.k_shots, spec.ensemble_sizes)
    pretrained = features = None
    if "transfer" in spec.arms:
        pretrained = _pretrain(spec, dataset.dim)
        # Any head will do: the head input depends on the extractor alone.
        model = init_transfer(spec.topology(dataset.dim), pretrained, 0)
        features = head_input(model, test.pre, test.post)
        features.setflags(write=False)
    return ExperimentContext(
        train_idx=train_idx,
        test_idx=test_idx,
        train=train,
        test=test,
        pretrained=pretrained,
        test_features=features,
    )


def _pretrain(spec: ExperimentSpec, input_dim: int) -> PretrainedExtractor:
    """Train the extractor on an auxiliary balanced source mixture, then freeze.

    The source task pools several synthetic tasks with their own seeds, so
    their change directions all differ from the target task's; the extractor
    has to learn generic change detection rather than one direction, which
    is what makes its features transferable.
    """
    if isinstance(spec.source, SyntheticSpec):
        separation, noise = spec.source.separation, spec.source.noise_scale
    else:
        separation, noise = 8.0, 1.0
    per_task = spec.source_size // spec.source_tasks
    parts = [
        generate_synthetic(
            SyntheticSpec(
                d=input_dim,
                n_pos=per_task,
                n_neg=per_task,
                separation=separation,
                noise_scale=noise,
                seed=derive_seed(spec.seed, SOURCE_STREAM, task),
            )
        )
        for task in range(spec.source_tasks)
    ]
    source = PairDataset(
        pre=np.concatenate([p.pre for p in parts]),
        post=np.concatenate([p.post for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
    )
    return pretrain_extractor(
        source,
        spec.topology(input_dim),
        spec.pretrain_budget,
        derive_seed(spec.seed, PRETRAIN_STREAM),
    )


def trial_seed_for(spec: ExperimentSpec, arm: str, k: int, m: int, trial_index: int) -> int:
    return derive_seed(spec.seed, TRIAL_STREAM, ARMS.index(arm), k, m, trial_index)


def run_trial(
    spec: ExperimentSpec,
    arm: str,
    k: int,
    m: int,
    trial_seed: int,
    trial_index: int = 0,
    *,
    context: ExperimentContext,
) -> TrialReport:
    """Train one ensemble on fresh k-shot/chunk draws and evaluate it.

    Draw, plan, assignment, and training seeds all derive from trial_seed.
    A thread scores each member while the next trains, unless no training
    can overlap it (|M| = 1) or this is a pool worker, whose siblings keep
    the other cores busy. Raises before any training if m chunks of size k
    do not fit in the train-split negatives, LeakageError if any base-model
    training row maps into the test set, and TrainingError naming the cell,
    the trial and the member if training diverges.
    """
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")
    _check_feasible(context.train, (k,), (m,))
    draw = draw_k_shot(context.train, k, derive_seed(trial_seed, DRAW_STREAM))
    plan = make_chunk_plan(context.train, k, derive_seed(trial_seed, PLAN_STREAM))
    assignment = assign_chunks(plan, m, derive_seed(trial_seed, ASSIGN_STREAM))

    config = dataclasses.replace(
        spec.train,
        iterations=spec.iteration_budget(arm, k),
        seed=derive_seed(trial_seed, TRAIN_STREAM),
    )
    test = context.test
    features = context.test_features if arm == "transfer" else None
    # Made here: the scoring thread's own malloc arena would keep its pages.
    hidden = None if features is None else np.empty((len(test), spec.head_hidden))
    scored: list[Future] = []
    with ThreadPoolExecutor(max_workers=1) as scorer:
        submit = scorer.submit if _WORKER_CTX is None and m > 1 else _run_now

        def score(model):
            scored.append(submit(member_scores, (model,), test.pre, test.post, features, hidden))

        try:
            train_ensemble(context.train, draw, plan, assignment, config, mode=arm,
                           topology=spec.topology(context.train.dim),
                           pretrained=context.pretrained, on_member=score)
        except TrainingError as exc:
            raise TrainingError(f"arm {arm}, k={k}, |M|={m}, trial {trial_index}, {exc}") from exc

        # Leakage guard: map each member's train-relative D_i rows to original
        # dataset rows and demand an empty intersection with the test rows.
        overlap = 0
        for i in range(1, m + 1):
            original = context.train_idx[base_training_set(draw, plan, assignment, i)]
            overlap += _overlap_count(original, context.test_idx)
        if overlap:
            raise LeakageError(f"{overlap} training rows leaked into the test set")
        per_model = np.concatenate([future.result() for future in scored])

    predictions = (per_model.mean(axis=0) >= 0.5).astype(np.int64)
    accuracy = 100.0 * float(np.mean(predictions == test.labels))
    calibrations = tuple(
        calibration_errors(records_from_scores(scores, test.labels))
        for scores in per_model
    )
    return TrialReport(
        trial_index=trial_index,
        arm=arm,
        k=k,
        ensemble_size=m,
        accuracy=accuracy,
        calibrations=calibrations,
        leakage_overlap=overlap,
    )


def _overlap_count(rows: np.ndarray, test_idx: np.ndarray) -> int:
    """np.intersect1d(rows, test_idx).size without sorting test_idx."""
    return int(np.unique(rows[np.isin(rows, test_idx)]).size)


def _run_now(fn, *args) -> Future:
    """fn(*args) run here and now, as a finished Future."""
    done = Future()
    done.set_result(fn(*args))
    return done


_WORKER_CTX: tuple[ExperimentSpec, ExperimentContext] | None = None


def _worker_init(spec: ExperimentSpec, ctx: ExperimentContext) -> None:
    global _WORKER_CTX
    _WORKER_CTX = (spec, ctx)


def _worker_run(job: tuple[str, int, int, int, int]) -> TrialReport:
    arm, k, m, trial_index, trial_seed = job
    spec, ctx = _WORKER_CTX
    return run_trial(spec, arm, k, m, trial_seed, trial_index=trial_index, context=ctx)


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> list[TrialReport]:
    """Run every (arm, k, |M|, trial) cell of the spec.

    The context is built once, in this process, and pool workers reuse it,
    so the extractor is pretrained once per sweep. Worker count only changes
    wall time: per-trial seeds are derived from the master seed, and results
    are returned in canonical cell order. BLAS runs one thread throughout, so
    the caller's thread count changes no byte; it is restored on return.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with blas.one_thread() as pinned:
        if not pinned:
            log.info("no OpenBLAS thread control found")
        ctx = build_context(spec)
        trials = itertools.product(spec.arms, spec.k_shots, spec.ensemble_sizes, range(spec.trials))
        jobs = [(*trial, trial_seed_for(spec, *trial)) for trial in trials]
        if workers == 1:
            reports = [
                run_trial(spec, arm, k, m, seed, trial_index=t, context=ctx)
                for arm, k, m, t, seed in jobs
            ]
        else:
            # A fork pool starts all of its workers at the first submit.
            with ProcessPoolExecutor(
                max_workers=min(workers, len(jobs)), initializer=_worker_init, initargs=(spec, ctx)
            ) as pool:
                reports = list(pool.map(_worker_run, jobs))
    reports.sort(key=lambda r: (r.arm, r.k, r.ensemble_size, r.trial_index))
    return reports


def summarize(reports: list[TrialReport]) -> SweepSummary:
    """Cell statistics over the (arm, k, |M|) grid the reports span.

    A cell with fewer than 2 reports is an error, and so are a grid cell
    with none (see SweepSummary) and two reports of one trial of a cell.
    """
    if not reports:
        raise ValueError("no trial reports to summarize")
    grouped: dict[tuple[str, int, int], dict[int, TrialReport]] = {}
    for r in reports:
        trials = grouped.setdefault((r.arm, r.k, r.ensemble_size), {})
        if r.trial_index in trials:
            raise ValueError(
                f"duplicate trial {r.trial_index} in cell "
                f"{_cell_name(r.arm, r.k, r.ensemble_size)}"
            )
        trials[r.trial_index] = r
    cells = []
    for (arm, k, m), trials in sorted(grouped.items()):
        group = list(trials.values())
        if len(group) < 2:
            raise ValueError(
                f"cell {_cell_name(arm, k, m)} has {len(group)} reports, need >= 2"
            )
        acc = np.array([r.accuracy for r in group])
        cal = aggregate_calibration(c for r in group for c in r.calibrations)
        cells.append(
            CellSummary(
                arm=arm,
                k=k,
                ensemble_size=m,
                mean_acc=float(acc.mean()),
                std_acc=float(acc.std(ddof=1)),
                mean_rms_cal=cal.mean_rms,
                std_rms_cal=cal.std_rms,
                mean_mad_cal=cal.mean_mad,
                std_mad_cal=cal.std_mad,
            )
        )
    return SweepSummary(cells=tuple(cells))


# --- results files -----------------------------------------------------------


def _field_dict(obj) -> dict:
    """Shallow dict of a dataclass instance's fields (values are not copied)."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def rows_csv(cls, rows) -> str:
    """CSV whose header is cls's field names and whose lines are the rows' fields.

    str values are written as they are and every other value through repr,
    so floats keep full precision.
    """
    names = [f.name for f in dataclasses.fields(cls)]
    lines = [",".join(names)]
    for row in rows:
        values = (getattr(row, name) for name in names)
        lines.append(",".join(v if isinstance(v, str) else repr(v) for v in values))
    return "\n".join(lines) + "\n"


def write_atomic(path: str | Path, text: str) -> None:
    """Write text to path through `<name>.tmp` beside it and a rename.

    path holds either its old bytes or all of the new ones; on failure the
    temp file is removed and the error propagates.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_reports_jsonl(reports: list[TrialReport], path: str | Path) -> None:
    """One TrialReport JSON object per line, in the given order, written atomically."""
    lines = [json.dumps(r.to_record(), sort_keys=True) for r in reports]
    write_atomic(path, "\n".join(lines) + "\n")


def load_reports_jsonl(path: str | Path) -> list[TrialReport]:
    reports = []
    for lineno, line in enumerate(read_utf8(path, "results").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            reports.append(TrialReport.from_record(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path} line {lineno}: malformed trial report: {exc}") from exc
    if not reports:
        raise ValueError(f"{path}: no trial reports found")
    return reports


def summary_csv(summary: SweepSummary) -> str:
    """CSV rendering of the cell table, one column per CellSummary field."""
    return rows_csv(CellSummary, summary.cells)


def write_summary_csv(summary: SweepSummary, path: str | Path) -> None:
    write_atomic(path, summary_csv(summary))
