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
import typing
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from pairbag import blas
from pairbag.calibrate import (
    DEFAULT_BIN_COUNT,
    CalibrationReport,
    calibration_errors,
    records_from_scores,
)
from pairbag.data import (
    PairDataset, SyntheticSpec, draw_k_shot, generate_synthetic, load_manifest, read_utf8,
    write_atomic,
)
from pairbag.ensemble import member_scores, train_ensemble
from pairbag.learner import (
    ARMS,
    BaseModel,
    SiameseTopology,
    TrainingError,
    head_input,
    pretrain_extractor,
    run_now,
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

    Its defaults live in default.ini, whose [model] and [experiment] keys
    fill the fields of their names; build_spec reads them. source is a
    SyntheticSpec or a manifest path. train holds both arms' hyperparameters;
    its iterations and seed are set per trial. extractor_hidden are the
    extractor's hidden widths between the input and feature layers; budgets
    are (arm, k, iterations) triples, one per (arm, k), looked up by nearest
    k per arm, and every arm in arms needs one.
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
        widths = self.topology(1)  # integer widths, or ValueError naming them
        object.__setattr__(self, "extractor_hidden", widths.extractor_sizes[1:])
        object.__setattr__(self, "head_hidden", widths.head_hidden)
        for name in ("arms", "k_shots", "ensemble_sizes"):
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in {values}")
        for i, (arm, k, iterations) in enumerate(self.budgets):
            if arm not in ARMS or k < 1 or iterations < 0:
                raise ValueError(
                    f"bad budget {arm}_{k} = {iterations}: need an arm in {ARMS}, "
                    "k >= 1 and iterations >= 0"
                )
            if (arm, k) in [row[:2] for row in self.budgets[:i]]:
                raise ValueError(f"duplicate budget {arm}_{k}: one per arm {arm} and k={k}")
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
        """Budget for the nearest tabulated k on `arm`, one of the spec's arms
        (ties: smaller k)."""
        rows = [(bk, b) for a, bk, b in self.budgets if a == arm]
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


# The parser of each field type a config key fills.
_PARSERS = {int: int, float: float, tuple[int, ...]: _int_list, tuple[str, ...]: _str_list}


def _read(section: configparser.SectionProxy, key: str, parse=str):
    """section[key] through parse; a parse error names the section and key."""
    try:
        return parse(section[key])
    except (ValueError, configparser.InterpolationError) as exc:
        raise ValueError(f"[{section.name}] {key}: {exc}") from None


def _fields(section: configparser.SectionProxy, cls, skip: str = "") -> dict:
    """Each key of section but skip, parsed by the type of cls's field of its name."""
    hints = typing.get_type_hints(cls)
    return {key: _read(section, key, _PARSERS[hints[key]]) for key in section if key != skip}


def _budgets(cfg: configparser.ConfigParser) -> tuple[tuple[str, int, int], ...]:
    budgets = cfg["budgets"]
    return tuple(sorted((*_budget_key(key), _read(budgets, key, int)) for key in budgets))


def build_spec(
    cfg: configparser.ConfigParser, seed: int | None = None, trials: int | None = None
) -> ExperimentSpec:
    """Translate an INI config into an ExperimentSpec; a flag given as seed or
    trials replaces the config's value once that has been parsed. [data] is
    parsed into a SyntheticSpec even when its manifest path, if set, is the
    source."""
    fields = _fields(cfg["model"], ExperimentSpec) | _fields(cfg["experiment"], ExperimentSpec)
    fields |= {key: flag for key, flag in (("seed", seed), ("trials", trials)) if flag is not None}
    manifest = _read(cfg["data"], "manifest").strip()
    data = SyntheticSpec(**_fields(cfg["data"], SyntheticSpec, "manifest"), seed=fields["seed"])
    return ExperimentSpec(
        source=manifest or data,
        train=TrainConfig(iterations=0, **_fields(cfg["train"], TrainConfig)),
        budgets=_budgets(cfg),
        **fields,
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

    A plain record of what summarize computed: the cells in (arm, k, |M|)
    order, the grid's sorted axes (scratch before transfer) and the
    improvement rows over them.
    """

    cells: tuple[CellSummary, ...]
    arms: tuple[str, ...]
    ks: tuple[int, ...]
    sizes: tuple[int, ...]
    improvements: tuple[ImprovementRow, ...]

    def cell(self, arm: str, k: int, ensemble_size: int) -> CellSummary:
        for c in self.cells:
            if (c.arm, c.k, c.ensemble_size) == (arm, k, ensemble_size):
                return c
        raise KeyError(f"no cell {_cell_name(arm, k, ensemble_size)}")


def _improvement_rows(by_key: dict, arms, ks, sizes) -> tuple[ImprovementRow, ...]:
    """Ensemble-gain and transfer-gain rows over the grid of cells by_key.

    Ensemble rows compare the smallest and largest |M| per arm and k;
    transfer rows compare scratch with transfer per k and |M|. A baseline
    cell with zero error gives no row.
    """
    small, large = sizes[0], sizes[-1]
    pairs = []  # (kind, arm, k, baseline cell key, compared cell key)
    if small != large:
        pairs += [
            ("ensemble", arm, k, (arm, k, small), (arm, k, large)) for arm in arms for k in ks
        ]
    if "scratch" in arms and "transfer" in arms:
        pairs += [
            ("transfer", "transfer", k, ("scratch", k, m), ("transfer", k, m))
            for k in ks
            for m in sizes
        ]
    rows = []
    for kind, arm, k, old, new in pairs:
        base = by_key[old].mean_error
        if base > 0.0:
            improvement = error_rate_improvement(by_key[new].mean_error, base)
            rows.append(ImprovementRow(kind, arm, k, old[2], new[2], improvement))
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
    """Holdout split, pretrained source model and its test head input, shared by every trial."""

    train_idx: np.ndarray
    test_idx: np.ndarray
    train: PairDataset
    test: PairDataset
    pretrained: BaseModel | None
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
    """Materialize the dataset, the holdout split, the pretrained model and
    its head input of the test split.

    Raises ValueError before pretraining if some grid cell cannot fit its
    ensemble in the train split, or if the test split holds fewer rows than
    a member's calibration has bins.
    """
    if isinstance(spec.source, SyntheticSpec):
        dataset = generate_synthetic(spec.source)
    else:
        dataset = load_manifest(spec.source)
    split_seed = derive_seed(spec.seed, SPLIT_STREAM)
    train_idx, test_idx = split_indices(dataset, spec.test_fraction, split_seed)
    train = dataset.subset(train_idx)
    test = dataset.subset(test_idx)
    # Nothing reads the full dataset after the split; freed here, it leaves
    # room for pretraining's buffers and the test features.
    del dataset
    _check_feasible(train, spec.k_shots, spec.ensemble_sizes)
    if len(test) < DEFAULT_BIN_COUNT:
        raise ValueError(
            f"the test split holds {len(test)} rows, fewer than the {DEFAULT_BIN_COUNT} "
            "calibration bins: raise test_fraction, n_pos or n_neg"
        )
    pretrained = features = None
    if "transfer" in spec.arms:
        pretrained = _pretrain(spec, train.dim)
        features = head_input(pretrained, test.pre, test.post)
        features.setflags(write=False)
    return ExperimentContext(
        train_idx=train_idx,
        test_idx=test_idx,
        train=train,
        test=test,
        pretrained=pretrained,
        test_features=features,
    )


def _pretrain(spec: ExperimentSpec, input_dim: int) -> BaseModel:
    """The model trained on an auxiliary balanced source mixture.

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
    the other cores busy. Raises before any draw if the spec does not run
    `arm`, before any training if m chunks of size k do not fit in the
    train-split negatives, LeakageError if any base-model training row maps
    into the test set, and TrainingError naming the cell, the trial and the
    member if training diverges.
    """
    if arm not in spec.arms:
        raise ValueError(f"unknown arm {arm!r}: the spec runs {spec.arms}")
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
        submit = scorer.submit if _WORKER_CTX is None and m > 1 else run_now

        def score(model):
            scored.append(submit(member_scores, (model,), test.pre, test.post, features, hidden))

        try:
            train_ensemble(context.train, draw, plan, assignment, config,
                           topology=spec.topology(context.train.dim), on_member=score,
                           pretrained=context.pretrained if arm == "transfer" else None)
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


def _mean_std(values) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1) of values."""
    values = np.array(values)
    return float(values.mean()), float(values.std(ddof=1))


def summarize(reports: list[TrialReport]) -> SweepSummary:
    """Cell statistics, grid axes and improvement rows of the reports.

    Each cell holds the sample mean and std of its trials' accuracies and of
    its members' RMS and MAD calibration errors. A cell with fewer than 2
    reports is an error, and so are two reports of one trial of a cell and
    a grid with no cell for some combination of its sorted arms, k values
    and ensemble sizes; that error names the first missing cell.
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
    by_key = {}
    for (arm, k, m), trials in sorted(grouped.items()):
        group = list(trials.values())
        if len(group) < 2:
            raise ValueError(
                f"cell {_cell_name(arm, k, m)} has {len(group)} reports, need >= 2"
            )
        cals = [c for r in group for c in r.calibrations]
        by_key[arm, k, m] = CellSummary(
            arm, k, m,
            *_mean_std([r.accuracy for r in group]),
            *_mean_std([c.rms_error for c in cals]),
            *_mean_std([c.mad_error for c in cals]),
        )
    axes = [tuple(sorted(set(axis))) for axis in zip(*by_key)]
    for key in itertools.product(*axes):
        if key not in by_key:
            raise ValueError(f"incomplete grid: no cell {_cell_name(*key)}")
    return SweepSummary(tuple(by_key.values()), *axes, _improvement_rows(by_key, *axes))


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


def write_summary_csv(summary: SweepSummary, path: str | Path) -> None:
    """The cell table as CSV, one column per CellSummary field, written atomically."""
    write_atomic(path, rows_csv(CellSummary, summary.cells))
