"""Tests for the siamese pair classifier: forward, init, training, freezing."""

import numpy as np
import pytest

import pairbag.learner as learner
from pairbag.data import SyntheticSpec, generate_synthetic
from pairbag.learner import (
    BaseModel,
    PretrainedExtractor,
    SiameseTopology,
    TrainingError,
    default_topology,
    fine_tune,
    forward,
    init_bound,
    init_scratch,
    init_transfer,
    pretrain_extractor,
)
from pairbag.optimize import TrainConfig


def oracle_forward(model, pre, post):
    """Independent per-row reimplementation of the siamese forward pass."""
    topology = model.topology
    n_ext = len(topology.extractor_sizes) - 1
    mats = []
    offset = 0
    for out, inp in topology.layer_shapes():
        w = model.weights[offset : offset + out * inp].reshape(out, inp)
        offset += out * inp
        b = model.weights[offset : offset + out]
        offset += out
        mats.append((w, b))

    def run_extractor(x):
        a = x
        for w, b in mats[:n_ext]:
            a = np.maximum(w @ a + b, 0.0)
        return a

    scores = []
    for i in range(pre.shape[0]):
        h = np.concatenate([run_extractor(pre[i]), run_extractor(post[i])])
        w1, b1 = mats[n_ext]
        r = np.maximum(w1 @ h + b1, 0.0)
        w2, b2 = mats[n_ext + 1]
        z = float((w2 @ r + b2)[0])
        scores.append(1.0 / (1.0 + np.exp(-z)))
    return np.array(scores)


def random_topology(rng):
    d = int(rng.integers(2, 6))
    depth = int(rng.integers(1, 3))
    hidden = tuple(int(rng.integers(3, 9)) for _ in range(depth))
    feat = int(rng.integers(2, 6))
    return SiameseTopology(extractor_sizes=(d,) + hidden + (feat,), head_hidden=int(rng.integers(4, 17)))


class TestSiameseTopology:
    def test_layer_shapes_and_param_count(self):
        t = SiameseTopology(extractor_sizes=(4, 8, 3), head_hidden=5)
        assert t.layer_shapes() == [(8, 4), (3, 8), (5, 6), (1, 5)]
        assert t.input_dim == 4
        assert t.feature_size == 3
        assert t.extractor_param_count == 8 * 5 + 3 * 9
        assert t.param_count == t.extractor_param_count + 5 * 7 + 1 * 6

    def test_head_consumes_both_branches(self):
        """The head's first layer takes 2f inputs: features of pre and post."""
        t = SiameseTopology(extractor_sizes=(4, 6), head_hidden=3)
        assert t.layer_shapes()[-2] == (3, 12)

    def test_default_topology(self):
        t = default_topology(10)
        assert t.extractor_sizes == (10, 64, 32)
        assert t.head_hidden == 128

    def test_rejects_too_short_extractor(self):
        with pytest.raises(ValueError, match="at least"):
            SiameseTopology(extractor_sizes=(4,))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            SiameseTopology(extractor_sizes=(4, 0, 2))


class TestBaseModel:
    def test_weight_slices_partition_the_vector(self):
        rng = np.random.default_rng(1)
        model = init_scratch(random_topology(rng), 4)
        merged = np.concatenate([model.extractor_weights, model.head_weights])
        np.testing.assert_array_equal(merged, model.weights)

    def test_rejects_wrong_length(self):
        t = SiameseTopology(extractor_sizes=(2, 3), head_hidden=2)
        with pytest.raises(ValueError, match="topology needs"):
            BaseModel(t, np.zeros(t.param_count + 1))

    def test_rejects_nonfinite_weights(self):
        t = SiameseTopology(extractor_sizes=(2, 3), head_hidden=2)
        w = np.zeros(t.param_count)
        w[0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            BaseModel(t, w)

    def test_rejects_unknown_mode(self):
        t = SiameseTopology(extractor_sizes=(2, 3), head_hidden=2)
        with pytest.raises(ValueError, match="init_mode"):
            BaseModel(t, np.zeros(t.param_count), init_mode="fancy")

    def test_weights_read_only(self):
        t = SiameseTopology(extractor_sizes=(2, 3), head_hidden=2)
        model = BaseModel(t, np.zeros(t.param_count))
        with pytest.raises(ValueError):
            model.weights[0] = 1.0


class TestForward:
    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            model = init_scratch(random_topology(rng), int(rng.integers(1 << 30)))
            d = model.topology.input_dim
            n = int(rng.integers(1, 8))
            pre = rng.standard_normal((n, d))
            post = rng.standard_normal((n, d))
            np.testing.assert_allclose(
                forward(model, pre, post), oracle_forward(model, pre, post), atol=1e-12
            )

    def test_zero_weights_score_half(self):
        t = SiameseTopology(extractor_sizes=(3, 4), head_hidden=2)
        model = BaseModel(t, np.zeros(t.param_count))
        rng = np.random.default_rng(0)
        scores = forward(model, rng.standard_normal((5, 3)), rng.standard_normal((5, 3)))
        np.testing.assert_array_equal(scores, np.full(5, 0.5))

    def test_scores_inside_unit_interval(self):
        rng = np.random.default_rng(11)
        model = init_scratch(random_topology(rng), 13)
        d = model.topology.input_dim
        scores = forward(model, 100 * rng.standard_normal((200, d)), 100 * rng.standard_normal((200, d)))
        assert (scores >= 0.0).all() and (scores <= 1.0).all()

    def test_branches_share_the_extractor(self):
        """With a head that weighs both feature blocks alike, swapping pre and
        post leaves every score unchanged, because both branches apply
        identical extractor weights."""
        rng = np.random.default_rng(23)
        model = init_scratch(random_topology(rng), 5)
        t, f = model.topology, model.topology.feature_size
        weights = model.weights.copy()
        start = t.extractor_param_count
        w1 = weights[start : start + t.head_hidden * 2 * f].reshape(t.head_hidden, 2 * f)
        w1[:, f:] = w1[:, :f]  # the head's first layer weighs pre and post features alike
        symmetric = BaseModel(t, weights)
        pre = rng.standard_normal((4, t.input_dim))
        post = rng.standard_normal((4, t.input_dim))
        np.testing.assert_allclose(
            forward(symmetric, pre, post), forward(symmetric, post, pre), atol=1e-15
        )

    def test_rejects_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        model = init_scratch(random_topology(rng), 8)
        d = model.topology.input_dim
        with pytest.raises(ValueError, match="input dim"):
            forward(model, np.zeros((2, d + 1)), np.zeros((2, d + 1)))
        with pytest.raises(ValueError, match="input dim"):
            forward(model, np.zeros(d), np.zeros(d))


class TestInitScratch:
    def test_deterministic_and_seed_sensitive(self):
        t = default_topology(6)
        a = init_scratch(t, 9)
        b = init_scratch(t, 9)
        c = init_scratch(t, 10)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_respects_per_layer_bounds(self):
        t = SiameseTopology(extractor_sizes=(16, 32, 8), head_hidden=24)
        model = init_scratch(t, 0)
        offset = 0
        for out, inp in t.layer_shapes():
            bound = init_bound(inp)
            block = model.weights[offset : offset + out * (inp + 1)]
            offset += out * (inp + 1)
            assert np.abs(block).max() <= bound

    def test_large_layer_std_matches_uniform_law(self):
        """Layers with >= 100 weights: sample std within 20% of bound/sqrt(3)."""
        t = SiameseTopology(extractor_sizes=(16, 64, 32), head_hidden=128)
        model = init_scratch(t, 123)
        offset = 0
        for out, inp in t.layer_shapes():
            w_block = model.weights[offset : offset + out * inp]
            offset += out * inp + out
            if w_block.size >= 100:
                target = init_bound(inp) / np.sqrt(3.0)
                assert abs(w_block.std() - target) / target < 0.2

    def test_mode_flags(self):
        model = init_scratch(default_topology(4), 0)
        assert model.init_mode == "scratch"
        assert not model.trained


class TestInitTransfer:
    def make_pretrained(self, sizes=(5, 8, 4), seed=2):
        t = SiameseTopology(extractor_sizes=sizes, head_hidden=6)
        base = init_scratch(t, seed)
        return t, PretrainedExtractor(
            extractor_sizes=sizes, weights=base.extractor_weights.copy(), source_seed=seed
        )

    def test_copies_extractor_bitwise(self):
        t, pretrained = self.make_pretrained()
        model = init_transfer(t, pretrained, 99)
        np.testing.assert_array_equal(model.extractor_weights, pretrained.weights)
        assert model.init_mode == "transfer"

    def test_head_is_fresh_and_seeded(self):
        t, pretrained = self.make_pretrained()
        a = init_transfer(t, pretrained, 1)
        b = init_transfer(t, pretrained, 1)
        c = init_transfer(t, pretrained, 2)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.head_weights, c.head_weights)
        np.testing.assert_array_equal(a.extractor_weights, c.extractor_weights)

    def test_rejects_size_mismatch(self):
        _, pretrained = self.make_pretrained(sizes=(5, 8, 4))
        other = SiameseTopology(extractor_sizes=(5, 8, 3), head_hidden=6)
        with pytest.raises(ValueError, match="do not match"):
            init_transfer(other, pretrained, 0)


def separable_dataset(n_pos=5, n_neg=5, d=4, seed=0):
    spec = SyntheticSpec(
        d=d, n_pos=n_pos, n_neg=n_neg, separation=6.0, noise_scale=0.5, seed=seed
    )
    return generate_synthetic(spec)


class TestFineTune:
    def small_topology(self, d=4):
        return SiameseTopology(extractor_sizes=(d, 8, 4), head_hidden=8)

    def test_zero_iterations_keeps_weights(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)
        trained, trace = fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=0))
        np.testing.assert_array_equal(trained.weights, model.weights)
        assert trained.trained
        assert trace.shape == (0,)

    def test_deterministic(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)
        cfg = TrainConfig(iterations=20, seed=5)
        a, trace_a = fine_tune(model, np.arange(len(ds)), ds, cfg)
        b, trace_b = fine_tune(model, np.arange(len(ds)), ds, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(trace_a, trace_b)

    def test_trace_has_one_finite_entry_per_iteration(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)
        _, trace = fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=25))
        assert trace.shape == (25,)
        assert np.isfinite(trace).all()

    def test_separable_pairs_reach_perfect_train_accuracy(self):
        """10 well-separated pairs are fit exactly within 200 iterations."""
        ds = separable_dataset()
        cfg = TrainConfig(iterations=200, learning_rate=0.01)
        for seed in (3, 7, 11):
            model = init_scratch(self.small_topology(), seed)
            trained, trace = fine_tune(model, np.arange(len(ds)), ds, cfg)
            scores = forward(trained, ds.pre, ds.post)
            predictions = (scores >= 0.5).astype(int)
            np.testing.assert_array_equal(predictions, ds.labels)
            assert trace[-1] < trace[0]

    def test_transfer_mode_freezes_extractor_bitwise(self):
        ds = separable_dataset()
        t = self.small_topology()
        base = init_scratch(t, 11)
        pretrained = PretrainedExtractor(
            extractor_sizes=t.extractor_sizes,
            weights=base.extractor_weights.copy(),
            source_seed=11,
        )
        model = init_transfer(t, pretrained, 12)
        trained, _ = fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=50))
        np.testing.assert_array_equal(trained.extractor_weights, pretrained.weights)
        assert not np.array_equal(trained.head_weights, model.head_weights)

    def test_scratch_mode_moves_extractor(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 11)
        trained, _ = fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=50))
        assert not np.array_equal(trained.extractor_weights, model.extractor_weights)

    def test_rejects_empty_index_set(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)
        with pytest.raises(ValueError, match="empty"):
            fine_tune(model, np.array([], dtype=int), ds, TrainConfig(iterations=1))

    def test_nonfinite_loss_names_iteration(self, monkeypatch):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)

        def broken(model_, pre, post, targets):
            raise TrainingError("non-finite loss in forward pass")

        monkeypatch.setattr(learner, "loss_and_gradient", broken)
        with pytest.raises(TrainingError, match="iteration 1"):
            fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=5))


class TestPretraining:
    def test_budget_zero_equals_scratch_init(self):
        source = separable_dataset(n_pos=10, n_neg=10, seed=4)
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        ext = pretrain_extractor(source, t, 0, 21)
        np.testing.assert_array_equal(ext.weights, init_scratch(t, 21).extractor_weights)
        assert ext.source_seed == 21

    def test_training_reduces_source_loss(self):
        """The frozen extractor is that of a scratch model fine-tuned on every
        source row, and that model fits the source task."""
        source = separable_dataset(n_pos=20, n_neg=20, seed=4)
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        init = init_scratch(t, 21)
        model, _ = fine_tune(init, np.arange(len(source)), source, TrainConfig(iterations=150))
        ext = pretrain_extractor(source, t, 150, 21)
        np.testing.assert_array_equal(ext.weights, model.extractor_weights)
        labels = source.labels
        trained_acc = np.mean((forward(model, source.pre, source.post) >= 0.5) == labels)
        init_acc = np.mean((forward(init, source.pre, source.post) >= 0.5) == labels)
        assert trained_acc >= init_acc
        assert trained_acc >= 0.9

    def test_extractor_size_validation(self):
        with pytest.raises(ValueError, match="expected"):
            PretrainedExtractor(extractor_sizes=(4, 8, 4), weights=np.zeros(3), source_seed=0)
