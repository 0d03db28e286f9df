"""Ensembles of pair classifiers trained on disjoint negative chunks.

Every base model sees the same positive k-shot draw but its own negative
chunk, so each training set is balanced (k positives, k negatives) and the
negative sets are pairwise disjoint. At inference the ensemble score is the
plain average of the base-model scores; the label thresholds it at 0.5.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pairbag.data import KShotDraw, PairDataset
from pairbag.learner import (
    BaseModel,
    PretrainedExtractor,
    SiameseTopology,
    TrainingError,
    default_topology,
    fine_tune,
    forward,
    init_scratch,
    init_transfer,
)
from pairbag.optimize import TrainConfig
from pairbag.partition import ChunkAssignment, ChunkPlan, base_training_set
from pairbag.seeding import derive_seed


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Trained base models plus the provenance needed to reproduce them."""

    models: tuple[BaseModel, ...]
    assignment: ChunkAssignment
    draw: KShotDraw
    seed: int

    def __post_init__(self) -> None:
        if len(self.models) == 0:
            raise ValueError("ensemble needs at least one base model")
        if len(self.models) != self.assignment.model_count:
            raise ValueError(
                f"{len(self.models)} models but assignment covers "
                f"{self.assignment.model_count}"
            )
        topo = self.models[0].topology
        if any(m.topology != topo for m in self.models):
            raise ValueError("all base models must share one topology")
        object.__setattr__(self, "models", tuple(self.models))

    @property
    def size(self) -> int:
        return len(self.models)

    @property
    def topology(self) -> SiameseTopology:
        return self.models[0].topology


def train_ensemble(
    dataset: PairDataset,
    draw: KShotDraw,
    plan: ChunkPlan,
    assignment: ChunkAssignment,
    config: TrainConfig,
    mode: str = "scratch",
    topology: SiameseTopology | None = None,
    pretrained: PretrainedExtractor | None = None,
) -> Ensemble:
    """Train one base model per assigned chunk and bundle them.

    Model i (1-based) is trained on the k-shot positives plus chunk
    assignment.assigned[i-1], initialized from derive_seed(config.seed, i)
    so members differ only through their seed path and their chunk. A
    TrainingError names the member (1-based) that diverged.
    """
    if mode not in ("scratch", "transfer"):
        raise ValueError(f"mode must be 'scratch' or 'transfer', got {mode!r}")
    if mode == "transfer" and pretrained is None:
        raise ValueError("transfer mode requires a pretrained extractor")
    if topology is None:
        topology = (
            SiameseTopology(pretrained.extractor_sizes)
            if mode == "transfer"
            else default_topology(dataset.dim)
        )
    models = []
    for i in range(1, assignment.model_count + 1):
        model_seed = derive_seed(config.seed, i)
        if mode == "scratch":
            init = init_scratch(topology, model_seed)
        else:
            init = init_transfer(topology, pretrained, model_seed)
        indices = base_training_set(dataset, draw, plan, assignment, i)
        try:
            trained, _ = fine_tune(init, indices, dataset, config.with_seed(model_seed))
        except TrainingError as exc:
            raise TrainingError(f"member {i}: {exc}") from exc
        models.append(trained)
    return Ensemble(models=tuple(models), assignment=assignment, draw=draw, seed=config.seed)


def predict_score(ensemble: Ensemble, pre: np.ndarray, post: np.ndarray):
    """Unweighted mean of base-model scores: float or (n,) array."""
    single = np.asarray(pre).ndim == 1
    scores = np.array([forward(m, pre, post) for m in ensemble.models], dtype=np.float64)
    mean = scores.mean(axis=0)
    return float(mean) if single else np.asarray(mean, dtype=np.float64)


def predict_label(ensemble: Ensemble, pre: np.ndarray, post: np.ndarray):
    """Hard decision: 1 where the mean score is >= 0.5, else 0."""
    score = predict_score(ensemble, pre, post)
    if np.isscalar(score) or np.asarray(score).ndim == 0:
        return int(score >= 0.5)
    return (score >= 0.5).astype(np.int64)


def member_scores(ensemble: Ensemble, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Per-model scores, shape (size, n); used for per-member calibration."""
    pre2 = np.atleast_2d(np.asarray(pre, dtype=np.float64))
    post2 = np.atleast_2d(np.asarray(post, dtype=np.float64))
    return np.stack([forward(m, pre2, post2) for m in ensemble.models])
