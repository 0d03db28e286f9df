"""Tests for the siamese pair classifier: forward, init, training, freezing."""

import re
import threading
import warnings

import numpy as np
import pytest

import pairbag.learner as learner
from pairbag import blas
from pairbag.data import PairDataset, SyntheticSpec, generate_synthetic
from pairbag.learner import (
    BaseModel,
    SiameseTopology,
    TrainingError,
    Workspace,
    fine_tune,
    forward,
    init_bound,
    init_scratch,
    init_transfer,
    loss_and_gradient,
    pretrain_extractor,
)
from pairbag.optimize import AdamState, TrainConfig, adam_step, loss, smooth_target


def oracle_layers(model):
    """(W, b) per layer of the model's flat weight vector; W is (out, in)."""
    mats = []
    offset = 0
    for out, inp in model.topology.layer_shapes():
        w = model.weights[offset : offset + out * inp].reshape(out, inp)
        offset += out * inp
        b = model.weights[offset : offset + out]
        offset += out
        mats.append((w, b))
    return mats


def oracle_forward(model, pre, post):
    """Independent per-row reimplementation of the siamese forward pass."""
    n_ext = len(model.topology.extractor_sizes) - 1
    mats = oracle_layers(model)

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


def oracle_extract(model, x):
    """Activations [x, layer 1, ..., features] of the extractor on rows x."""
    acts = [x]
    for w, b in oracle_layers(model)[: len(model.topology.extractor_sizes) - 1]:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    return acts


def oracle_loss_and_gradient(model, pre, post, targets):
    """Batch loss and gradient in straight-line code: the extractor runs on
    the pairs' rows interleaved, pair i's pre row at 2i and its post row at
    2i+1, and each layer's term, dz.T @ x and the column sums of dz, is
    written into the gradient vector, which has the weights' dtype."""
    topology = model.topology
    n_ext = len(topology.extractor_sizes) - 1
    mats = oracle_layers(model)
    grad = np.empty(topology.param_count, model.weights.dtype)
    views = learner._unpack(grad, topology.layer_shapes())

    def set_term(layer, dz, x):
        gw, gb = views[layer]
        gw[...] = dz.T @ x
        gb[...] = dz.sum(axis=0)

    n = pre.shape[0]
    acts = oracle_extract(model, np.stack([pre, post], axis=1).reshape(2 * n, -1))
    h = acts[-1].reshape(n, -1)
    (w1, b1), (w2, b2) = mats[n_ext:]
    r1 = np.maximum(h @ w1.T + b1, 0.0)
    scores = learner._sigmoid((r1 @ w2.T + b2)[:, 0])
    mean_loss = loss(scores, targets)
    dlogit = ((scores - targets) / n)[:, None]
    set_term(n_ext + 1, dlogit, r1)
    dz1 = (dlogit @ w2) * (r1 > 0.0)
    set_term(n_ext, dz1, h)
    da = (dz1 @ w1).reshape(2 * n, -1)
    for li in range(n_ext - 1, -1, -1):
        dz = da * (acts[li + 1] > 0.0)
        set_term(li, dz, acts[li])
        da = dz @ mats[li][0]
    return mean_loss, grad


def two_branch_loss_and_gradient(model, pre, post, targets):
    """Batch loss and gradient with the branches apart, summed into a
    zero-filled vector: per layer += the head term, then the pre term, then
    the post term. The interleaved batch reorders these sums, so this
    reference agrees with loss_and_gradient only to a tolerance."""
    topology = model.topology
    n_ext = len(topology.extractor_sizes) - 1
    mats = oracle_layers(model)
    grad = np.zeros(topology.param_count)
    views = learner._unpack(grad, topology.layer_shapes())

    def add_term(layer, dz, x):
        gw, gb = views[layer]
        gw += dz.T @ x
        gb += dz.sum(axis=0)

    branches = [oracle_extract(model, pre), oracle_extract(model, post)]
    h = np.concatenate([branches[0][-1], branches[1][-1]], axis=1)
    (w1, b1), (w2, b2) = mats[n_ext:]
    r1 = np.maximum(h @ w1.T + b1, 0.0)
    scores = learner._sigmoid((r1 @ w2.T + b2)[:, 0])
    mean_loss = loss(scores, targets)
    dlogit = ((scores - targets) / h.shape[0])[:, None]
    add_term(n_ext + 1, dlogit, r1)
    dz1 = (dlogit @ w2) * (r1 > 0.0)
    add_term(n_ext, dz1, h)
    dh = dz1 @ w1
    f = topology.feature_size
    for acts, da in zip(branches, (dh[:, :f], dh[:, f:])):
        for li in range(n_ext - 1, -1, -1):
            dz = da * (acts[li + 1] > 0.0)
            add_term(li, dz, acts[li])
            da = dz @ mats[li][0]
    return mean_loss, grad


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

    def test_rejects_too_short_extractor(self):
        with pytest.raises(ValueError, match="at least"):
            SiameseTopology(extractor_sizes=(4,), head_hidden=2)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match=">= 1"):
            SiameseTopology(extractor_sizes=(4, 0, 2), head_hidden=2)

    def test_widths_must_be_integers(self):
        """A fractional width is rejected, not truncated; an integral float
        is rejected too, and numpy integers become ints."""
        with pytest.raises(ValueError, match=r"layer widths \(3, 4\.5, 2, 4\) must be integers"):
            SiameseTopology(extractor_sizes=(3, 4.5, 2), head_hidden=4)
        with pytest.raises(ValueError, match=r"\(3, 4, 2, 4\.0\) must be integers"):
            SiameseTopology(extractor_sizes=(3, 4, 2), head_hidden=4.0)
        t = SiameseTopology(extractor_sizes=np.array([3, 4, 2]), head_hidden=np.int64(4))
        assert t.extractor_sizes == (3, 4, 2) and type(t.head_hidden) is int


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
        # Past one 512-pair block of head_input, the last one partial.
        for n in (513, 1100):
            model = init_scratch(random_topology(rng), int(rng.integers(1 << 30)))
            pre, post = rng.standard_normal((2, n, model.topology.input_dim))
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
        t = SiameseTopology(extractor_sizes=(6, 64, 32), head_hidden=128)
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
        model = init_scratch(SiameseTopology(extractor_sizes=(4, 64, 32), head_hidden=128), 0)
        assert model.init_mode == "scratch"


class TestInitTransfer:
    def make_pretrained(self, sizes=(5, 8, 4), seed=2):
        """The target topology and a pretrained model whose head is wider."""
        t = SiameseTopology(extractor_sizes=sizes, head_hidden=6)
        return t, init_scratch(SiameseTopology(extractor_sizes=sizes, head_hidden=9), seed)

    def test_copies_extractor_bitwise(self):
        t, pretrained = self.make_pretrained()
        model = init_transfer(t, pretrained, 99)
        np.testing.assert_array_equal(model.extractor_weights, pretrained.extractor_weights)
        assert model.topology == t
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
        pretrained = init_scratch(t, 11)
        model = init_transfer(t, pretrained, 12)
        trained, _ = fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=50))
        np.testing.assert_array_equal(trained.extractor_weights, pretrained.extractor_weights)
        assert not np.array_equal(trained.head_weights, model.head_weights)

    @staticmethod
    def transfer_and_full_vector(widths, head_hidden, n):
        """Head-only transfer training and the full-vector loop that zeroes
        the extractor gradient before each Adam step, on n separable pairs:
        (fine_tune's weights, its trace, the loop's weights, its trace)."""
        ds = separable_dataset(n_pos=n // 2, n_neg=n - n // 2, d=widths[0])
        t = SiameseTopology(extractor_sizes=widths, head_hidden=head_hidden)
        pretrained = init_scratch(t, 11)
        model = init_transfer(t, pretrained, 12)
        cfg = TrainConfig(iterations=30, learning_rate=0.01)
        targets = smooth_target(ds.labels, cfg.alpha)
        weights, state, trace = model.weights.copy(), AdamState.zeros(t.param_count), []
        for _ in range(cfg.iterations):
            # BaseModel makes its weights read-only, so it gets a copy and
            # adam_step updates the writable `weights` in place.
            step_loss, grad = loss_and_gradient(
                BaseModel(t, weights.copy(), "transfer"), ds.pre, ds.post, targets
            )
            grad[: t.extractor_param_count] = 0.0
            adam_step(weights, grad, state, cfg)
            trace.append(step_loss)
        trained, got_trace = fine_tune(model, np.arange(len(ds)), ds, cfg)
        return trained.weights, got_trace, weights, np.array(trace)

    def test_transfer_mode_matches_full_vector_training_bytewise(self):
        """head_input computes the features of loss_and_gradient's batch, so
        head-only training gives the full-vector loop's bytes, also over the
        topologies and row counts at which TestGradientAssembly checks that
        loop's gradient against its oracle."""
        rng = np.random.default_rng(23)
        for t in [self.small_topology()] + TestGradientAssembly.topologies(rng):
            for n in (1, 2, 10, 11, 100):
                got, got_trace, want, trace = self.transfer_and_full_vector(
                    t.extractor_sizes, t.head_hidden, n
                )
                assert np.array_equal(got, want), (t, n)
                assert np.array_equal(got_trace, trace), (t, n)

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 1984])
    def test_transfer_mode_matches_full_vector_training_at_default_widths(self, n):
        """The same bytes at the default widths: at 1, 10 and 11 pairs,
        extracting each branch alone rounded differently from the one batch
        of both, and 1,984 pairs span four of head_input's blocks."""
        got, got_trace, want, trace = self.transfer_and_full_vector((16, 128, 64), 128, n)
        assert np.array_equal(got, want)
        assert np.array_equal(got_trace, trace)

    @staticmethod
    def scratch_adam(model, ds, config, dtype):
        """Full-batch Adam on float64 weights from `model`, each step's
        gradient computed in `dtype` and widened: (weights, loss trace)."""
        t = model.topology
        targets = smooth_target(ds.labels, config.alpha)
        batch = [a.astype(dtype) for a in (ds.pre, ds.post, targets)]
        work = Workspace(t, len(ds), dtype)
        weights, state, trace = model.weights.copy(), AdamState.zeros(t.param_count), []
        for _ in range(config.iterations):
            step_loss, grad = loss_and_gradient(BaseModel(t, weights.copy()), *batch, work)
            adam_step(weights, grad.astype(np.float64), state, config)
            trace.append(step_loss)
        return weights, np.array(trace)

    # Fixed before measuring: ten times TestFloat32Workspace's one-pass loss
    # bound, for the drift that float32 gradients add over up to 130 steps.
    TRACE_TOL = 1e-5

    @pytest.mark.parametrize("n, iterations", [(10, 100), (100, 130)])
    def test_scratch_mode_computes_in_float32_on_float64_weights(self, n, iterations):
        """At the default widths and the default scratch budgets, fine_tune
        gives the bytes of float32 passes on float64 Adam and returns float64
        weights, and its loss trace stays within TRACE_TOL relative of the
        same init trained in float64."""
        ds = separable_dataset(n_pos=n // 2, n_neg=n - n // 2, d=16, seed=n)
        model = init_scratch(SiameseTopology((16, 128, 64), 128), 3)
        cfg = TrainConfig(iterations=iterations)
        trained, trace = fine_tune(model, np.arange(n), ds, cfg)
        assert trained.weights.dtype == np.float64 and trace.dtype == np.float64
        weights, mixed = self.scratch_adam(model, ds, cfg, np.float32)
        assert trained.weights.tobytes() == weights.tobytes()
        assert trace.tobytes() == mixed.tobytes()
        _, reference = self.scratch_adam(model, ds, cfg, np.float64)
        assert np.all(np.abs(trace - reference) <= self.TRACE_TOL * reference)

    def test_scratch_mode_moves_extractor(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 11)
        trained, _ = fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=50))
        assert not np.array_equal(trained.extractor_weights, model.extractor_weights)

    def transfer_model(self):
        t = self.small_topology()
        pretrained = init_scratch(t, 11)
        return init_transfer(t, pretrained, 12)

    def test_input_model_is_unchanged(self):
        ds = separable_dataset()
        for model in (init_scratch(self.small_topology(), 3), self.transfer_model()):
            before = model.weights.copy()
            fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=20))
            assert model.weights.tobytes() == before.tobytes()

    def test_returned_weights_are_fresh_and_read_only(self):
        """Adam trains a buffer in place; no returned model may alias it, the
        input model or the model of another run."""
        ds = separable_dataset()
        for model in (init_scratch(self.small_topology(), 3), self.transfer_model()):
            cfg = TrainConfig(iterations=5)
            a, _ = fine_tune(model, np.arange(len(ds)), ds, cfg)
            b, _ = fine_tune(model, np.arange(len(ds)), ds, cfg)
            assert not a.weights.flags.writeable and not b.weights.flags.writeable
            assert not np.shares_memory(a.weights, b.weights)
            assert not np.shares_memory(a.weights, model.weights)
            assert a.weights.tobytes() == b.weights.tobytes()

    def test_rejects_empty_index_set(self):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)
        with pytest.raises(ValueError, match="empty"):
            fine_tune(model, np.array([], dtype=int), ds, TrainConfig(iterations=1))

    def test_nonfinite_loss_names_iteration(self, monkeypatch):
        ds = separable_dataset()
        model = init_scratch(self.small_topology(), 3)

        def broken(model_, pre, post, targets, **kwargs):
            raise TrainingError("non-finite loss in forward pass")

        monkeypatch.setattr(learner, "loss_and_gradient", broken)
        with pytest.raises(TrainingError, match="iteration 1"):
            fine_tune(model, np.arange(len(ds)), ds, TrainConfig(iterations=5))


class TestSigmoid:
    @staticmethod
    def masked(z):
        """The two-branch sigmoid, evaluated on each branch's rows alone."""
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def test_matches_masked_reference_bytewise(self):
        rng = np.random.default_rng(41)
        edges = [0.0, -0.0, np.inf, -np.inf, 800.0, -800.0, 1e-300, -1e-300, 5e-324, -5e-324]
        for scale in (1e-3, 1.0, 30.0, 1e3):
            z = np.concatenate([rng.standard_normal(5000) * scale, edges])
            assert learner._sigmoid(z).tobytes() == self.masked(z).tobytes()


class TestGradientAssembly:
    @staticmethod
    def topologies(rng):
        return [random_topology(rng) for _ in range(4)] + [
            SiameseTopology(extractor_sizes=(5, 9, 7, 6, 4), head_hidden=8),
            SiameseTopology(extractor_sizes=(16, 128, 64), head_hidden=128),
        ]

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 100])
    def test_matches_straight_line_oracle_bytewise(self, n):
        """The gradient gives the oracle's loss and gradient bytes, fresh and
        through a reused workspace."""
        rng = np.random.default_rng(100 + n)
        for t in self.topologies(rng):
            work = Workspace(t, n)
            for seed in (1, 2):
                model = init_scratch(t, seed)
                pre, post = rng.standard_normal((2, n, t.input_dim))
                targets = smooth_target(rng.integers(0, 2, n), 0.1)
                want_loss, want = oracle_loss_and_gradient(model, pre, post, targets)
                for got_loss, got in (
                    loss_and_gradient(model, pre, post, targets),
                    loss_and_gradient(model, pre, post, targets, work),
                ):
                    assert got_loss == want_loss and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 100, 1984])
    def test_agrees_with_two_branch_sums(self, n):
        """Interleaving the branches only reorders the extractor's gradient sums:
        every entry stays within 1e-13 * max|g| of the two-branch reference,
        and the loss within 1e-14 relative."""
        rng = np.random.default_rng(200 + n)
        for t in self.topologies(rng):
            model = init_scratch(t, 3)
            pre, post = rng.standard_normal((2, n, t.input_dim))
            targets = smooth_target(rng.integers(0, 2, n), 0.1)
            want_loss, want = two_branch_loss_and_gradient(model, pre, post, targets)
            got_loss, got = loss_and_gradient(model, pre, post, targets)
            assert abs(got_loss - want_loss) <= 1e-14 * abs(want_loss)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_gradient_batch_contract(self):
        """loss_and_gradient takes nonempty (n, d) pairs with one target each:
        broadcastable targets, a 1-D pair and an empty batch are all rejected."""
        rng = np.random.default_rng(6)
        model = init_scratch(random_topology(rng), 8)
        d = model.topology.input_dim
        pre, post = rng.standard_normal((2, 5, d))
        for targets in (np.full(1, 0.5), np.full(4, 0.5), np.full((5, 1), 0.5)):
            with pytest.raises(ValueError, match="for 5 pairs"):
                loss_and_gradient(model, pre, post, targets)
        with pytest.raises(ValueError, match="input dim"):
            loss_and_gradient(model, pre[0], post[0], np.full(1, 0.5))
        with pytest.raises(ValueError, match="nonempty"):
            loss_and_gradient(model, pre[:0], post[:0], np.full(0, 0.5))


class TestWorkspace:
    def batch(self, rng, t, n):
        pre = rng.standard_normal((n, t.input_dim))
        post = rng.standard_normal((n, t.input_dim))
        return pre, post, smooth_target(rng.integers(0, 2, n), 0.1)

    def test_reused_workspace_leaks_no_state(self):
        """A call on batch B through a workspace that last held batch A gives
        the loss and gradient bytes of a fresh call on B."""
        rng = np.random.default_rng(37)
        for _ in range(20):
            t = random_topology(rng)
            n = int(rng.integers(1, 40))
            model_a = init_scratch(t, int(rng.integers(1 << 30)))
            model_b = init_scratch(t, int(rng.integers(1 << 30)))
            a, b = self.batch(rng, t, n), self.batch(rng, t, n)
            work = Workspace(t, n)
            loss_and_gradient(model_a, *a, work=work)
            got_loss, got = loss_and_gradient(model_b, *b, work=work)
            want_loss, want = loss_and_gradient(model_b, *b)
            assert got_loss == want_loss and got.tobytes() == want.tobytes()

    def test_returned_gradient_is_the_workspace_buffer(self):
        rng = np.random.default_rng(3)
        t = random_topology(rng)
        work = Workspace(t, 5)
        _, grad = loss_and_gradient(init_scratch(t, 1), *self.batch(rng, t, 5), work=work)
        assert grad is work.grad

    def test_mismatched_workspace_names_both_shapes(self):
        rng = np.random.default_rng(8)
        t = SiameseTopology(extractor_sizes=(3, 5, 2), head_hidden=4)
        other = SiameseTopology(extractor_sizes=(3, 6, 2), head_hidden=4)
        model = init_scratch(t, 2)
        pre, post, targets = self.batch(rng, t, 6)
        for work in (Workspace(t, 7), Workspace(other, 6)):
            built = f"n={work.n}, extractor {work.topology.extractor_sizes}"
            both = re.escape(built) + r".*n=6, extractor \(3, 5, 2\)"
            with pytest.raises(ValueError, match=both):
                loss_and_gradient(model, pre, post, targets, work=work)


class TestFloat32Workspace:
    """A float32 workspace computes pretraining's forward and backward pass
    in float32, on the model's float64 weights cast to float32 at each call."""

    # Fixed from float32's unit roundoff before measuring: the inputs and
    # weights are rounded once, and each product and sum of up to 2n rows
    # adds a few units; 16 eps of max|g| bounds the whole gradient.
    GRAD_TOL = 16 * np.finfo(np.float32).eps
    LOSS_TOL = 1e-6

    TOPOLOGIES = (
        SiameseTopology(extractor_sizes=(16, 128, 64), head_hidden=128),
        SiameseTopology(extractor_sizes=(16, 64, 48, 32, 16), head_hidden=32),
    )

    @staticmethod
    def batch32(pre, post, targets):
        return pre.astype(np.float32), post.astype(np.float32), targets.astype(np.float32)

    @pytest.mark.parametrize("n", [1, 2, 10, 992])
    def test_agrees_with_the_float64_kernel(self, n):
        rng = np.random.default_rng(300 + n)
        for t in self.TOPOLOGIES:
            model = init_scratch(t, 5)
            pre, post = rng.standard_normal((2, n, t.input_dim))
            targets = smooth_target(rng.integers(0, 2, n), 0.1)
            want_loss, want = loss_and_gradient(model, pre, post, targets)
            work = Workspace(t, n, np.float32)
            got_loss, got = loss_and_gradient(model, *self.batch32(pre, post, targets), work)
            assert got is work.grad and got.dtype == np.float32
            assert abs(got_loss - want_loss) <= self.LOSS_TOL * abs(want_loss)
            assert np.abs(got - want).max() <= self.GRAD_TOL * np.abs(want).max()

    def test_each_call_reads_the_current_weights(self):
        """A float32 workspace that last held model A gives model B the
        bytes of a fresh float32 workspace."""
        rng = np.random.default_rng(41)
        t = self.TOPOLOGIES[1]
        batch = self.batch32(*rng.standard_normal((2, 6, t.input_dim)), np.full(6, 0.5))
        model_a, model_b = init_scratch(t, 1), init_scratch(t, 2)
        work = Workspace(t, 6, np.float32)
        loss_and_gradient(model_a, *batch, work)
        got_loss, got = loss_and_gradient(model_b, *batch, work)
        want_loss, want = loss_and_gradient(model_b, *batch, Workspace(t, 6, np.float32))
        assert got_loss == want_loss and got.tobytes() == want.tobytes()


class TestPretrainingThreads:
    @staticmethod
    def pretrain_spied(monkeypatch):
        """pretrain_extractor on a 1,001-pair source at benchmark widths, and
        per loss_and_gradient call its row count, thread and BLAS thread count.
        The halves hold 500 and 501 rows."""
        source = separable_dataset(n_pos=500, n_neg=501, d=16, seed=4)
        t = SiameseTopology(extractor_sizes=(16, 128, 64), head_hidden=128)
        seen = []
        real = learner.loss_and_gradient

        def spy(*args, **kwargs):
            seen.append((args[1].shape[0], threading.get_ident(), blas.threads()))
            return real(*args, **kwargs)

        monkeypatch.setattr(learner, "loss_and_gradient", spy)
        pretrained = pretrain_extractor(source, t, 3, 21)
        monkeypatch.setattr(learner, "loss_and_gradient", real)
        return pretrained, seen

    def test_second_half_runs_on_a_second_thread_at_one_blas_thread(
        self, monkeypatch, two_blas_threads
    ):
        """A direct call at 2 BLAS threads trains both halves at 1, the second
        off the calling thread, and leaves the caller's count at 2."""
        _, seen = self.pretrain_spied(monkeypatch)
        here = threading.get_ident()
        assert sorted(rows for rows, _, _ in seen) == [500] * 3 + [501] * 3
        assert all((thread == here) == (rows == 500) for rows, thread, _ in seen)
        assert all(threads == 1 for _, _, threads in seen)
        assert blas.threads() == 2

    def test_without_blas_control_both_halves_run_here_with_the_same_bytes(
        self, monkeypatch
    ):
        threaded, _ = self.pretrain_spied(monkeypatch)
        # Pinned here, as the call itself cannot: its bytes are those of 1 BLAS thread.
        with blas.one_thread():
            monkeypatch.setattr(blas, "_library", lambda: None)
            serial, seen = self.pretrain_spied(monkeypatch)
        assert len(seen) == 6
        assert all(thread == threading.get_ident() for _, thread, _ in seen)
        assert serial.weights.tobytes() == threaded.weights.tobytes()


class TestPretraining:
    def test_rejects_a_source_of_one_pair(self):
        source = PairDataset(pre=np.zeros((1, 4)), post=np.ones((1, 4)), labels=[0])
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        with pytest.raises(ValueError, match=">= 2 source pairs, one per half; got 1"):
            pretrain_extractor(source, t, 3, 21)

    def test_budget_zero_equals_scratch_init(self):
        source = separable_dataset(n_pos=10, n_neg=10, seed=4)
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        pretrained = pretrain_extractor(source, t, 0, 21)
        np.testing.assert_array_equal(pretrained.weights, init_scratch(t, 21).weights)
        assert pretrained.init_mode == "scratch"

    @staticmethod
    def two_half_adam(source, t, init, config, dtype):
        """Full-batch Adam on the float64 weights `init` over the row-weighted
        float64 mean of the source halves' gradients, computed in `dtype`."""
        targets = smooth_target(source.labels, config.alpha)
        weights, state = init.weights.copy(), AdamState.zeros(t.param_count)
        n, cut = len(source), len(source) // 2
        halves = [
            (
                source.pre[rows].astype(dtype),
                source.post[rows].astype(dtype),
                targets[rows].astype(dtype),
                Workspace(t, size, dtype),
            )
            for rows, size in ((slice(cut), cut), (slice(cut, n), n - cut))
        ]
        for _ in range(config.iterations):
            model = BaseModel(t, weights.copy())
            g1 = loss_and_gradient(model, *halves[0])[1].astype(np.float64)
            g2 = loss_and_gradient(model, *halves[1])[1].astype(np.float64)
            adam_step(weights, g1 * (cut / n) + g2 * ((n - cut) / n), state, config)
        return BaseModel(t, weights)

    def test_training_reduces_source_loss(self):
        """The pretrained model is a scratch model trained by full-batch Adam
        on float64 weights over the row-weighted mean of its two source
        halves' float32 gradients, and it fits the source task. Its source
        loss stays within 1e-6 relative of the same loop run in float64."""
        source = separable_dataset(n_pos=20, n_neg=21, seed=4)
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        init = init_scratch(t, 21)
        config = TrainConfig(iterations=150)
        mixed = self.two_half_adam(source, t, init, config, np.float32)
        pretrained = pretrain_extractor(source, t, 150, 21)
        assert pretrained.weights.tobytes() == mixed.weights.tobytes()
        reference = self.two_half_adam(source, t, init, config, np.float64)
        targets = smooth_target(source.labels, config.alpha)
        got, want = (
            loss(forward(m, source.pre, source.post), targets) for m in (pretrained, reference)
        )
        assert abs(got - want) <= 1e-6 * want
        labels = source.labels
        trained_acc = np.mean((forward(pretrained, source.pre, source.post) >= 0.5) == labels)
        init_acc = np.mean((forward(init, source.pre, source.post) >= 0.5) == labels)
        assert trained_acc >= init_acc
        assert trained_acc >= 0.9

    def test_source_beyond_float32_range_fails_before_the_first_step(self, monkeypatch):
        """A source that overflows float32 is a ValueError naming
        pretraining and the data keys, raised without a cast warning and
        before any gradient."""
        clean = separable_dataset(n_pos=10, n_neg=10, seed=4)
        source = PairDataset(clean.pre, clean.post * 1e39, clean.labels)
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        calls = []
        monkeypatch.setattr(learner, "loss_and_gradient", lambda *args: calls.append(args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = "^pretraining .*float32.*separation or noise_scale$"
            with pytest.raises(ValueError, match=match):
                pretrain_extractor(source, t, 5, 21)
        assert calls == []

    def test_nonfinite_loss_names_iteration(self, monkeypatch):
        source = separable_dataset(n_pos=10, n_neg=10, seed=4)
        t = SiameseTopology(extractor_sizes=(4, 8, 4), head_hidden=8)
        real = learner.loss_and_gradient
        calls = []

        def broken_third_call(*args):
            calls.append(None)
            if len(calls) == 3:
                raise TrainingError("non-finite gradient")
            return real(*args)

        monkeypatch.setattr(learner, "loss_and_gradient", broken_third_call)
        with pytest.raises(TrainingError, match="^pretraining iteration 2: non-finite gradient$"):
            pretrain_extractor(source, t, 5, 21)
