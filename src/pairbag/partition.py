"""Negative-pool partitioning: shuffle, chunk, and assign chunks to base models.

The negative pool is shuffled once per trial and split into disjoint chunks
of size k (the positive shot count); leftovers are dropped for that trial so
every chunk balances the positive set exactly. Base models then each receive
one distinct chunk, sampled without replacement. Chunk ids are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pairbag.data import KShotDraw, PairDataset


@dataclass(frozen=True, eq=False)
class ChunkPlan:
    """A seeded partition of the negative indices into size-k chunks.

    `chunks` is a (c, k) array; row i-1 holds chunk i (ids start at 1).
    `dropped` holds the |N| mod k leftover negative indices.
    """

    k: int
    chunks: np.ndarray
    dropped: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        chunks = np.ascontiguousarray(self.chunks, dtype=np.int64)
        dropped = np.ascontiguousarray(self.dropped, dtype=np.int64)
        if chunks.ndim != 2 or chunks.shape[1] != self.k:
            raise ValueError(f"chunks must be (c, k={self.k}), got {chunks.shape}")
        if chunks.shape[0] < 1:
            raise ValueError("a plan needs at least one chunk")
        flat = np.concatenate([chunks.ravel(), dropped])
        if len(np.unique(flat)) != flat.size:
            raise ValueError("chunks and dropped indices must be disjoint")
        chunks.setflags(write=False)
        dropped.setflags(write=False)
        object.__setattr__(self, "chunks", chunks)
        object.__setattr__(self, "dropped", dropped)

    @property
    def chunk_count(self) -> int:
        return self.chunks.shape[0]

    def chunk(self, chunk_id: int) -> np.ndarray:
        """Negative indices of the 1-based chunk id."""
        if not 1 <= chunk_id <= self.chunk_count:
            raise IndexError(f"chunk id {chunk_id} outside 1..{self.chunk_count}")
        return self.chunks[chunk_id - 1]


@dataclass(frozen=True, eq=False)
class ChunkAssignment:
    """Which chunk each base model trains against.

    `assigned[i-1]` is the 1-based chunk id for model i; ids are distinct.
    """

    model_count: int
    assigned: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        assigned = np.ascontiguousarray(self.assigned, dtype=np.int64)
        if assigned.shape != (self.model_count,):
            raise ValueError(
                f"expected {self.model_count} chunk ids, got shape {assigned.shape}"
            )
        if len(np.unique(assigned)) != self.model_count:
            raise ValueError("assigned chunk ids must be distinct")
        assigned.setflags(write=False)
        object.__setattr__(self, "assigned", assigned)


def make_chunk_plan(dataset: PairDataset, k: int, seed: int) -> ChunkPlan:
    """Shuffle the negatives and split them into floor(|N|/k) chunks of size k.

    The |N| mod k indices left after the last full chunk are dropped for
    this plan, keeping every chunk exactly balanced against a k-shot
    positive set.
    """
    negatives = dataset.negatives
    n_neg = len(negatives)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n_neg:
        raise ValueError(f"k={k} exceeds the {n_neg} available negatives (zero chunks)")
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(negatives)
    c = n_neg // k
    chunks = shuffled[: c * k].reshape(c, k)
    dropped = shuffled[c * k :]
    return ChunkPlan(k=k, chunks=chunks, dropped=dropped, seed=seed)


def assign_chunks(plan: ChunkPlan, model_count: int, seed: int) -> ChunkAssignment:
    """Sample `model_count` distinct chunk ids without replacement."""
    if model_count < 1:
        raise ValueError(f"model_count must be >= 1, got {model_count}")
    if model_count > plan.chunk_count:
        raise ValueError(
            f"model_count={model_count} exceeds the plan's {plan.chunk_count} chunks"
        )
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(1, plan.chunk_count + 1), size=model_count, replace=False)
    return ChunkAssignment(model_count=model_count, assigned=ids, seed=seed)


def base_training_set(
    draw: KShotDraw, plan: ChunkPlan, assignment: ChunkAssignment, i: int
) -> np.ndarray:
    """Training indices D_i for 1-based base model i: the k-shot positives
    plus model i's assigned negative chunk (size 2k, balanced)."""
    if not 1 <= i <= assignment.model_count:
        raise IndexError(f"model index {i} outside 1..{assignment.model_count}")
    negatives = plan.chunk(int(assignment.assigned[i - 1]))
    return np.concatenate([draw.indices, negatives])
