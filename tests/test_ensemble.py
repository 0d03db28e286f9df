"""Tests for ensembles: training per chunk, score averaging, prediction."""

import numpy as np
import pytest

from pairbag.data import KShotDraw, SyntheticSpec, draw_k_shot, generate_synthetic
from pairbag.ensemble import (
    Ensemble,
    member_scores,
    predict_score,
    train_ensemble,
)
from pairbag.learner import (
    SiameseTopology,
    forward,
    head_input,
    init_scratch,
    init_transfer,
)
from pairbag.optimize import TrainConfig
from pairbag.partition import ChunkAssignment, assign_chunks, make_chunk_plan


def dataset(n_pos=6, n_neg=30, d=4, seed=1):
    spec = SyntheticSpec(
        d=d, n_pos=n_pos, n_neg=n_neg, separation=4.0, noise_scale=1.0, seed=seed
    )
    return generate_synthetic(spec)


def small_topology(d=4):
    return SiameseTopology(extractor_sizes=(d, 8, 4), head_hidden=8)


def build_ensemble(ds, m=3, k=3, iterations=5, seed=7, topology=None):
    draw = draw_k_shot(ds, k, seed)
    plan = make_chunk_plan(ds, k, seed + 1)
    assignment = assign_chunks(plan, m, seed + 2)
    cfg = TrainConfig(iterations=iterations, seed=seed)
    return train_ensemble(
        ds, draw, plan, assignment, cfg, topology=topology or small_topology(ds.dim)
    )


def untrained_ensemble(m, topology, seed=0):
    """Hand-assembled ensemble of scratch-initialized models."""
    models = tuple(init_scratch(topology, seed + i) for i in range(m))
    assignment = ChunkAssignment(
        model_count=m, assigned=np.arange(1, m + 1), seed=seed
    )
    draw = KShotDraw(k=2, indices=np.array([0, 1]), seed=seed)
    return Ensemble(models=models, assignment=assignment, draw=draw, seed=seed)


class TestEnsembleType:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            Ensemble(
                models=(),
                assignment=ChunkAssignment(1, np.array([1]), 0),
                draw=KShotDraw(k=1, indices=np.array([0]), seed=0),
                seed=0,
            )

    def test_rejects_count_mismatch(self):
        t = small_topology()
        models = (init_scratch(t, 0), init_scratch(t, 1))
        with pytest.raises(ValueError, match="2 models but assignment covers"):
            Ensemble(
                models=models,
                assignment=ChunkAssignment(3, np.array([1, 2, 3]), 0),
                draw=KShotDraw(k=1, indices=np.array([0]), seed=0),
                seed=0,
            )

    def test_rejects_mixed_topologies(self):
        a = init_scratch(small_topology(), 0)
        b = init_scratch(SiameseTopology(extractor_sizes=(4, 6, 4), head_hidden=8), 0)
        with pytest.raises(ValueError, match="share one topology"):
            Ensemble(
                models=(a, b),
                assignment=ChunkAssignment(2, np.array([1, 2]), 0),
                draw=KShotDraw(k=1, indices=np.array([0]), seed=0),
                seed=0,
            )


class TestTrainEnsemble:
    def test_members_are_trained_and_distinct(self):
        ens = build_ensemble(dataset(), m=4)
        assert len(ens.models) == 4
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(ens.models[i].weights, ens.models[j].weights)

    def test_deterministic(self):
        ds = dataset()
        a = build_ensemble(ds, m=3)
        b = build_ensemble(ds, m=3)
        for ma, mb in zip(a.models, b.models):
            np.testing.assert_array_equal(ma.weights, mb.weights)

    def test_pretrained_selects_the_transfer_arm(self):
        """Members are transfer models over the pretrained extractor exactly
        when `pretrained` is given, and scratch models otherwise."""
        ds = dataset()
        t = small_topology(ds.dim)
        pretrained = init_scratch(t, 99)
        draw = draw_k_shot(ds, 3, 0)
        plan = make_chunk_plan(ds, 3, 1)
        assignment = assign_chunks(plan, 2, 2)
        cfg = TrainConfig(iterations=2)
        transfer = train_ensemble(ds, draw, plan, assignment, cfg, t, pretrained=pretrained)
        scratch = train_ensemble(ds, draw, plan, assignment, cfg, t)
        for model in transfer.models:
            assert model.init_mode == "transfer"
            assert model.extractor_weights.tobytes() == pretrained.extractor_weights.tobytes()
        assert all(model.init_mode == "scratch" for model in scratch.models)


class TestPrediction:
    def test_single_member_is_identity(self):
        """|M| = 1 ensembles score exactly like their one base model."""
        ds = dataset()
        ens = build_ensemble(ds, m=1)
        rng = np.random.default_rng(5)
        pre = rng.standard_normal((64, ds.dim))
        post = rng.standard_normal((64, ds.dim))
        np.testing.assert_array_equal(
            predict_score(ens, pre, post), forward(ens.models[0], pre, post)
        )

    def test_mean_matches_direct_summation(self):
        """Averaging agrees with a plain running-sum oracle to 1e-15."""
        rng = np.random.default_rng(8)
        for m in (2, 5, 9):
            ens = untrained_ensemble(m, small_topology(), seed=int(rng.integers(1 << 20)))
            pre = rng.standard_normal((32, 4))
            post = rng.standard_normal((32, 4))
            total = np.zeros(32)
            for member in ens.models:
                total = total + forward(member, pre, post)
            np.testing.assert_allclose(predict_score(ens, pre, post), total / m, atol=1e-15)

    def test_member_scores_shape_and_content(self):
        ens = untrained_ensemble(4, small_topology())
        rng = np.random.default_rng(6)
        pre = rng.standard_normal((10, 4))
        post = rng.standard_normal((10, 4))
        per_model = member_scores(ens.models, pre, post)
        assert per_model.shape == (4, 10)
        for i, member in enumerate(ens.models):
            np.testing.assert_array_equal(per_model[i], forward(member, pre, post))
        np.testing.assert_allclose(
            per_model.mean(axis=0), predict_score(ens, pre, post), atol=1e-15
        )

    def test_shared_extractor_scores_equal_forward_loop_bytewise(self):
        """Members sharing one frozen extractor are scored from one head input,
        computed here or passed in, with or without a hidden-activation
        buffer; the bytes equal a per-member forward pass."""
        t = small_topology()
        pretrained = init_scratch(t, 3)
        models = tuple(init_transfer(t, pretrained, seed) for seed in range(5))
        ens = Ensemble(
            models=models,
            assignment=ChunkAssignment(5, np.arange(1, 6), 0),
            draw=KShotDraw(k=2, indices=np.array([0, 1]), seed=0),
            seed=0,
        )
        rng = np.random.default_rng(12)
        pre = rng.standard_normal((700, 4))
        post = rng.standard_normal((700, 4))
        loop = np.stack([forward(m, pre, post) for m in models])
        assert np.array_equal(member_scores(ens.models, pre, post), loop)
        features = head_input(models[0], pre, post)
        hidden = np.empty((700, t.head_hidden))
        for i, model in enumerate(models):
            assert np.array_equal(member_scores([model], pre, post, features, hidden)[0], loop[i])
