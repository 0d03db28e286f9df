"""Ensembles of pair classifiers trained on disjoint negative chunks.

Every base model sees the same positive k-shot draw but its own negative
chunk, so each training set is balanced (k positives, k negatives) and the
negative sets are pairwise disjoint. At inference every member scores the
same (n, d) pair batch and the ensemble score is the plain average.
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
        indices = base_training_set(draw, plan, assignment, i)
        try:
            trained, _ = fine_tune(init, indices, dataset, config)
        except TrainingError as exc:
            raise TrainingError(f"member {i}: {exc}") from exc
        models.append(trained)
    return Ensemble(models=tuple(models), assignment=assignment, draw=draw, seed=config.seed)


def member_scores(ensemble: Ensemble, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Per-model scores of n pairs, shape (size, n); used for per-member calibration."""
    return np.stack([forward(m, pre, post) for m in ensemble.models])


def predict_score(ensemble: Ensemble, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Unweighted mean of the base-model scores of n pairs, shape (n,)."""
    return member_scores(ensemble, pre, post).mean(axis=0)
