"""Tests for negative-pool chunking and chunk-to-model assignment."""

import numpy as np
import pytest

from pairbag.data import SyntheticSpec, draw_k_shot, generate_synthetic
from pairbag.partition import (
    ChunkAssignment,
    ChunkPlan,
    assign_chunks,
    base_training_set,
    make_chunk_plan,
)


def dataset(n_pos=10, n_neg=100, seed=3):
    spec = SyntheticSpec(
        d=2, n_pos=n_pos, n_neg=n_neg, separation=1.0, noise_scale=1.0, seed=seed
    )
    return generate_synthetic(spec)


class TestMakeChunkPlan:
    def test_partition_counts(self):
        """chunk_count = floor(|N|/k), each chunk size k, dropped = |N| mod k."""
        rng = np.random.default_rng(8)
        ds = dataset(n_pos=5, n_neg=500)
        for _ in range(50):
            k = int(rng.integers(1, 61))
            plan = make_chunk_plan(ds, k, int(rng.integers(1 << 30)))
            assert plan.chunk_count == 500 // k
            assert plan.chunks.shape == (500 // k, k)
            assert plan.dropped.size == 500 % k

    def test_chunks_disjoint_and_cover_negatives(self):
        ds = dataset(n_pos=5, n_neg=103)
        plan = make_chunk_plan(ds, 10, 42)
        flat = np.concatenate([plan.chunks.ravel(), plan.dropped])
        np.testing.assert_array_equal(np.sort(flat), ds.negatives)

    def test_only_negative_indices_appear(self):
        ds = dataset(n_pos=20, n_neg=80)
        plan = make_chunk_plan(ds, 7, 1)
        assert np.isin(plan.chunks.ravel(), ds.negatives).all()
        assert not np.isin(plan.chunks.ravel(), ds.positives).any()

    def test_deterministic(self):
        ds = dataset()
        a = make_chunk_plan(ds, 9, 77)
        b = make_chunk_plan(ds, 9, 77)
        np.testing.assert_array_equal(a.chunks, b.chunks)
        np.testing.assert_array_equal(a.dropped, b.dropped)

    def test_different_seeds_shuffle_differently(self):
        ds = dataset()
        a = make_chunk_plan(ds, 9, 1)
        b = make_chunk_plan(ds, 9, 2)
        assert not np.array_equal(a.chunks, b.chunks)

    def test_exact_division_drops_nothing(self):
        ds = dataset(n_neg=100)
        plan = make_chunk_plan(ds, 25, 0)
        assert plan.chunk_count == 4
        assert plan.dropped.size == 0

    def test_rejects_k_larger_than_pool(self):
        ds = dataset(n_neg=10)
        with pytest.raises(ValueError, match="zero chunks"):
            make_chunk_plan(ds, 11, 0)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError, match="k must be"):
            make_chunk_plan(dataset(), 0, 0)


class TestChunkPlanType:
    def test_chunk_ids_are_one_based(self):
        ds = dataset(n_neg=30)
        plan = make_chunk_plan(ds, 10, 5)
        np.testing.assert_array_equal(plan.chunk(1), plan.chunks[0])
        np.testing.assert_array_equal(plan.chunk(3), plan.chunks[2])
        with pytest.raises(IndexError, match="outside 1..3"):
            plan.chunk(0)
        with pytest.raises(IndexError, match="outside 1..3"):
            plan.chunk(4)

    def test_rejects_overlapping_chunks(self):
        with pytest.raises(ValueError, match="disjoint"):
            ChunkPlan(k=2, chunks=np.array([[1, 2], [2, 3]]), dropped=np.array([]), seed=0)

    def test_rejects_dropped_overlapping_chunks(self):
        with pytest.raises(ValueError, match="disjoint"):
            ChunkPlan(k=2, chunks=np.array([[1, 2]]), dropped=np.array([2]), seed=0)


class TestAssignChunks:
    def test_assigns_distinct_valid_ids(self):
        plan = make_chunk_plan(dataset(n_neg=200), 10, 0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = int(rng.integers(1, plan.chunk_count + 1))
            assignment = assign_chunks(plan, m, int(rng.integers(1 << 30)))
            assert assignment.assigned.shape == (m,)
            assert len(np.unique(assignment.assigned)) == m
            assert assignment.assigned.min() >= 1
            assert assignment.assigned.max() <= plan.chunk_count

    def test_deterministic(self):
        plan = make_chunk_plan(dataset(n_neg=200), 10, 0)
        a = assign_chunks(plan, 5, 33)
        b = assign_chunks(plan, 5, 33)
        np.testing.assert_array_equal(a.assigned, b.assigned)

    def test_error_names_both_counts(self):
        plan = make_chunk_plan(dataset(n_neg=30), 10, 0)
        with pytest.raises(ValueError, match="model_count=4 exceeds the plan's 3"):
            assign_chunks(plan, 4, 0)

    def test_rejects_duplicate_ids_in_type(self):
        with pytest.raises(ValueError, match="distinct"):
            ChunkAssignment(model_count=2, assigned=np.array([1, 1]), seed=0)


class TestBaseTrainingSet:
    def test_is_draw_plus_assigned_chunk(self):
        ds = dataset(n_pos=10, n_neg=100)
        draw = draw_k_shot(ds, 5, 1)
        plan = make_chunk_plan(ds, 5, 2)
        assignment = assign_chunks(plan, 4, 3)
        for i in range(1, 5):
            d_i = base_training_set(draw, plan, assignment, i)
            assert d_i.size == 10  # balanced: k positives + k negatives
            np.testing.assert_array_equal(d_i[:5], draw.indices)
            np.testing.assert_array_equal(d_i[5:], plan.chunk(int(assignment.assigned[i - 1])))

    def test_negative_parts_pairwise_disjoint(self):
        """Distinct base models never share a negative sample."""
        ds = dataset(n_pos=10, n_neg=100)
        draw = draw_k_shot(ds, 5, 1)
        plan = make_chunk_plan(ds, 5, 2)
        assignment = assign_chunks(plan, 6, 3)
        sets = [set(base_training_set(draw, plan, assignment, i)[5:]) for i in range(1, 7)]
        for a in range(6):
            for b in range(a + 1, 6):
                assert not sets[a] & sets[b]

    def test_model_index_is_one_based(self):
        ds = dataset(n_pos=10, n_neg=100)
        draw = draw_k_shot(ds, 5, 1)
        plan = make_chunk_plan(ds, 5, 2)
        assignment = assign_chunks(plan, 2, 3)
        with pytest.raises(IndexError, match="outside 1..2"):
            base_training_set(draw, plan, assignment, 0)
        with pytest.raises(IndexError, match="outside 1..2"):
            base_training_set(draw, plan, assignment, 3)
