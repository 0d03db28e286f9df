"""Tests for label smoothing, BCE loss, analytic gradients, and Adam."""

import numpy as np
import pytest

from pairbag.data import SyntheticSpec, generate_synthetic
from pairbag.learner import SiameseTopology, forward, init_scratch, BaseModel
from pairbag.optimize import (
    SCORE_CLAMP,
    AdamState,
    TrainConfig,
    adam_step,
    gradient,
    loss,
    smooth_target,
)


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        cfg = TrainConfig(iterations=10)
        assert cfg.learning_rate == 0.001
        assert cfg.alpha == 0.1
        assert cfg.adam_beta1 == 0.9 and cfg.adam_beta2 == 0.999
        assert cfg.adam_eps == 1e-8

    def test_zero_learning_rate_is_allowed(self):
        assert TrainConfig(iterations=1, learning_rate=0.0).learning_rate == 0.0

    def test_rejects_negative_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(iterations=1, learning_rate=-0.1)

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(iterations=1, alpha=1.0)
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(iterations=1, alpha=-0.1)

    def test_rejects_bad_betas_and_eps(self):
        with pytest.raises(ValueError, match="betas"):
            TrainConfig(iterations=1, adam_beta1=1.0)
        with pytest.raises(ValueError, match="adam_eps"):
            TrainConfig(iterations=1, adam_eps=0.0)

    @pytest.mark.parametrize("name, value", [("adam_beta1", 0.0), ("adam_beta2", float("nan"))])
    def test_bad_beta_error_names_field_and_value(self, name, value):
        with pytest.raises(ValueError, match=rf"got {name} = {value}$"):
            TrainConfig(iterations=1, **{name: value})


class TestSmoothTarget:
    def test_known_values(self):
        assert smooth_target(1, 0.1) == pytest.approx(0.95, abs=1e-15)
        assert smooth_target(0, 0.1) == pytest.approx(0.05, abs=1e-15)
        assert smooth_target(1, 0.0) == 1.0

    def test_range_and_affinity(self):
        """Targets live in [alpha/2, 1 - alpha/2] and are affine in the label."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            alpha = float(rng.uniform(0, 0.999))
            t0 = float(smooth_target(0, alpha))
            t1 = float(smooth_target(1, alpha))
            assert t0 == pytest.approx(alpha / 2)
            assert t1 == pytest.approx(1 - alpha / 2)
            lam = float(rng.uniform(0, 1))
            mixed = float(smooth_target(lam, alpha))
            assert mixed == pytest.approx((1 - lam) * t0 + lam * t1, abs=1e-12)

    def test_vectorized(self):
        labels = np.array([0, 1, 1, 0])
        np.testing.assert_allclose(
            smooth_target(labels, 0.2), [0.1, 0.9, 0.9, 0.1], atol=1e-15
        )

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            smooth_target(1, 1.0)


class TestLoss:
    def test_symmetric_half_point(self):
        assert loss(0.5, 0.5) == pytest.approx(np.log(2.0), abs=1e-15)

    def test_minimized_at_target_on_grid(self):
        """loss(s, 0.95) over a 10^4-point grid is minimized at s = 0.95."""
        grid = np.linspace(1e-6, 1 - 1e-6, 10_000)
        at_target = loss(0.95, 0.95)
        values = np.array([loss(s, 0.95) for s in grid])
        assert at_target <= values.min() + 1e-12

    def test_gibbs_inequality(self):
        """loss(s, t) >= loss(t, t) for any s, t in (0, 1)."""
        rng = np.random.default_rng(77)
        for _ in range(100):
            s = float(rng.uniform(1e-6, 1 - 1e-6))
            t = float(rng.uniform(1e-6, 1 - 1e-6))
            assert loss(s, t) >= loss(t, t) - 1e-12

    def test_saturated_scores_stay_finite(self):
        assert np.isfinite(loss(0.0, 1.0))
        assert np.isfinite(loss(1.0, 0.0))

    def test_bytes_equal_np_mean_of_the_same_values(self):
        rng = np.random.default_rng(19)
        for n in (1, 7, 100, 129, 6060):
            scores = rng.uniform(0, 1, n)
            scores[rng.integers(0, n, 1 + n // 10)] = rng.choice([0.0, 1.0])
            targets = smooth_target(rng.integers(0, 2, n), 0.1)
            s = np.clip(scores, SCORE_CLAMP, 1.0 - SCORE_CLAMP)
            values = -(targets * np.log(s) + (1.0 - targets) * np.log1p(-s))
            assert np.float64(loss(scores, targets)).tobytes() == np.mean(values).tobytes()

    def test_mean_over_batch(self):
        scores = np.array([0.2, 0.7, 0.9])
        targets = np.array([0.05, 0.95, 0.95])
        per_point = [loss(s, t) for s, t in zip(scores, targets)]
        assert loss(scores, targets) == pytest.approx(np.mean(per_point), rel=1e-12)


def random_model(rng):
    d = int(rng.integers(2, 5))
    hidden = tuple(int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3))))
    feat = int(rng.integers(2, 5))
    topology = SiameseTopology(
        extractor_sizes=(d,) + hidden + (feat,), head_hidden=int(rng.integers(3, 9))
    )
    return init_scratch(topology, int(rng.integers(1 << 30)))


def batch_for(model, rng, n):
    d = model.topology.input_dim
    pre = rng.standard_normal((n, d))
    post = rng.standard_normal((n, d))
    labels = rng.integers(0, 2, n)
    return pre, post, labels


class TestGradient:
    def test_matches_finite_differences(self):
        """Analytic gradient agrees with central differences at h = 1e-5."""
        rng = np.random.default_rng(5)
        cfg = TrainConfig(iterations=1)
        h = 1e-5
        for _ in range(5):
            model = random_model(rng)
            pre, post, labels = batch_for(model, rng, int(rng.integers(2, 6)))
            targets = smooth_target(labels, cfg.alpha)
            grad = gradient(model, (pre, post, labels), cfg)
            w = model.weights
            for j in rng.choice(w.size, size=min(40, w.size), replace=False):
                up_w = w.copy()
                up_w[j] += h
                up = loss(forward(BaseModel(model.topology, up_w), pre, post), targets)
                down_w = w.copy()
                down_w[j] -= h
                down = loss(forward(BaseModel(model.topology, down_w), pre, post), targets)
                fd = (up - down) / (2 * h)
                if abs(grad[j]) > 1e-6:
                    assert abs(grad[j] - fd) / max(abs(grad[j]), abs(fd)) < 1e-4

    def test_zero_input_symmetry(self):
        """With zero inputs and constant per-layer weights, the units of each
        layer are interchangeable, so their gradient components must agree."""
        topology = SiameseTopology(extractor_sizes=(2, 3), head_hidden=4)
        pieces = []
        for out, inp in topology.layer_shapes():
            pieces.append(np.full(out * inp, 0.1))
            pieces.append(np.full(out, 0.2))
        model = BaseModel(topology, np.concatenate(pieces))
        pre = np.zeros((2, 2))
        post = np.zeros((2, 2))
        labels = np.array([1, 0])
        grad = gradient(model, (pre, post, labels), TrainConfig(iterations=1))
        offset = 0
        for out, inp in topology.layer_shapes():
            w_block = grad[offset : offset + out * inp]
            offset += out * inp
            b_block = grad[offset : offset + out]
            offset += out
            np.testing.assert_allclose(w_block, w_block[0], atol=1e-15)
            np.testing.assert_allclose(b_block, b_block[0], atol=1e-15)

    def test_duplicating_batch_preserves_mean(self):
        rng = np.random.default_rng(21)
        cfg = TrainConfig(iterations=1)
        model = random_model(rng)
        pre, post, labels = batch_for(model, rng, 4)
        once = gradient(model, (pre, post, labels), cfg)
        twice = gradient(
            model,
            (np.tile(pre, (2, 1)), np.tile(post, (2, 1)), np.tile(labels, 2)),
            cfg,
        )
        np.testing.assert_allclose(twice, once, rtol=1e-10, atol=1e-14)

    def test_rejects_a_batch_that_is_not_n_pairs_with_n_labels(self):
        """One label for 5 pairs would broadcast to every pair, and a 1-D pair
        is not the (1, d) batch that forward takes."""
        rng = np.random.default_rng(3)
        model = random_model(rng)
        pre, post, labels = batch_for(model, rng, 5)
        cfg = TrainConfig(iterations=1)
        with pytest.raises(ValueError, match="for 5 pairs"):
            gradient(model, (pre, post, labels[:1]), cfg)
        with pytest.raises(ValueError, match="input dim"):
            gradient(model, (pre[0], post[0], labels[0]), cfg)

    def test_rejects_empty_batch(self):
        rng = np.random.default_rng(2)
        model = random_model(rng)
        d = model.topology.input_dim
        with pytest.raises(ValueError, match="nonempty"):
            gradient(
                model,
                (np.empty((0, d)), np.empty((0, d)), np.empty(0, dtype=int)),
                TrainConfig(iterations=1),
            )


def adam_oracle(weights, grad, m, v, t, config):
    """The allocating Adam formula adam_step replaced: new (weights, m, v, t)."""
    t = t + 1
    m = config.adam_beta1 * m + (1.0 - config.adam_beta1) * grad
    v = config.adam_beta2 * v + (1.0 - config.adam_beta2) * (grad * grad)
    m_hat = m / (1.0 - config.adam_beta1**t)
    v_hat = v / (1.0 - config.adam_beta2**t)
    new_weights = weights - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return new_weights, m, v, t


class TestAdamStep:
    def test_zero_gradient_is_identity(self):
        w = np.array([1.0, -2.0, 3.0])
        before = w.copy()
        state = AdamState.zeros(3)
        adam_step(w, np.zeros(3), state, TrainConfig(iterations=1))
        np.testing.assert_array_equal(w, before)
        assert state.t == 1

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal(10)
        before = w.copy()
        cfg = TrainConfig(iterations=1, learning_rate=0.0)
        adam_step(w, rng.standard_normal(10), AdamState.zeros(10), cfg)
        np.testing.assert_array_equal(w, before)

    def test_first_step_is_signed_learning_rate(self):
        """From a fresh state, the first update is -lr * sign(g) up to eps."""
        rng = np.random.default_rng(30)
        cfg = TrainConfig(iterations=1)
        for _ in range(10):
            w = rng.standard_normal(20)
            before = w.copy()
            g = rng.choice([-1.0, 1.0], 20) * rng.uniform(0.01, 1.0, 20)
            adam_step(w, g, AdamState.zeros(20), cfg)
            np.testing.assert_allclose(
                w - before, -cfg.learning_rate * np.sign(g), atol=cfg.learning_rate * 1e-6
            )

    def test_state_accumulates_moments(self):
        cfg = TrainConfig(iterations=1)
        g = np.array([0.5, -0.5])
        state = AdamState.zeros(2)
        adam_step(np.zeros(2), g, state, cfg)
        np.testing.assert_allclose(state.m, (1 - cfg.adam_beta1) * g, rtol=1e-15)
        np.testing.assert_allclose(state.v, (1 - cfg.adam_beta2) * g * g, rtol=1e-15)
        assert state.t == 1
        assert (state.v >= 0).all()

    def test_updates_its_arguments_in_place(self):
        rng = np.random.default_rng(4)
        w, g = rng.standard_normal(6), rng.standard_normal(6)
        state = AdamState(m=rng.standard_normal(6), v=rng.uniform(0, 1, 6), t=3)
        arrays = (w, state.m, state.v)
        before = [a.copy() for a in arrays]
        assert adam_step(w, g, state, TrainConfig(iterations=1)) is None
        assert (w, state.m, state.v) == arrays and state.t == 4
        assert all(not np.array_equal(a, b) for a, b in zip(arrays, before))
        assert all(x.shape == (6,) for x in state.scratch)

    def test_matches_allocating_formula_bytewise(self):
        """25 chained steps give the oracle's weight, moment and counter bytes,
        at the head's and the full default-topology size and at random sizes,
        betas and learning rates, zero included."""
        rng = np.random.default_rng(23)
        sizes = [16_641, 27_073] + [int(n) for n in rng.integers(1, 3000, 4)]
        rates = [0.0, 1e-3, 1e-2] + [float(r) for r in 10.0 ** rng.uniform(-5, 0, 3)]
        for n, lr in zip(sizes, rates):
            cfg = TrainConfig(
                iterations=1,
                learning_rate=lr,
                adam_beta1=float(rng.uniform(0.01, 0.99)),
                adam_beta2=float(rng.uniform(0.01, 0.9999)),
            )
            w = rng.standard_normal(n)
            state = AdamState.zeros(n)
            want_w, want_m, want_v, want_t = w.copy(), state.m.copy(), state.v.copy(), 0
            for _ in range(25):
                g = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2)
                adam_step(w, g, state, cfg)
                want_w, want_m, want_v, want_t = adam_oracle(
                    want_w, g, want_m, want_v, want_t, cfg
                )
            assert w.tobytes() == want_w.tobytes()
            assert state.m.tobytes() == want_m.tobytes()
            assert state.v.tobytes() == want_v.tobytes()
            assert state.t == want_t == 25

    def test_permutation_equivariance(self):
        """Permuting weights, grads, and state permutes the update the same way."""
        rng = np.random.default_rng(9)
        cfg = TrainConfig(iterations=1)
        w = rng.standard_normal(15)
        g = rng.standard_normal(15)
        m, v = rng.standard_normal(15), rng.uniform(0, 1, 15)
        perm = rng.permutation(15)
        plain, plain_state = w.copy(), AdamState(m=m.copy(), v=v.copy(), t=3)
        permuted, perm_state = w[perm], AdamState(m=m[perm], v=v[perm], t=3)
        adam_step(plain, g, plain_state, cfg)
        adam_step(permuted, g[perm], perm_state, cfg)
        np.testing.assert_allclose(permuted, plain[perm], rtol=1e-15)
        np.testing.assert_allclose(perm_state.m, plain_state.m[perm], rtol=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(np.zeros(3), np.zeros(4), AdamState.zeros(3), TrainConfig(iterations=1))

    def test_float32_gradient_gives_the_bytes_of_its_float64_widening(self):
        """Over chained steps, a float32 gradient leaves the weight and moment
        bytes of the same gradient widened to float64 first. Squared in
        float32, its 1e-30 entry would round to 0 and leave v there at 0."""
        rng = np.random.default_rng(34)
        cfg = TrainConfig(iterations=1)
        w = rng.standard_normal(64)
        wide, state, wide_state = w.copy(), AdamState.zeros(64), AdamState.zeros(64)
        for _ in range(10):
            g = (rng.standard_normal(64) * 10.0 ** rng.uniform(-6, 2)).astype(np.float32)
            g[0] = 1e-30
            adam_step(w, g, state, cfg)
            adam_step(wide, g.astype(np.float64), wide_state, cfg)
            assert g[0] == np.float32(1e-30)
        assert w.tobytes() == wide.tobytes()
        assert state.m.tobytes() == wide_state.m.tobytes()
        assert state.v.tobytes() == wide_state.v.tobytes()
        assert state.v[0] > 0 and state.t == wide_state.t == 10

    def test_determinism(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal(8)
        g = rng.standard_normal(8)
        cfg = TrainConfig(iterations=1)
        a, b = w.copy(), w.copy()
        adam_step(a, g, AdamState.zeros(8), cfg)
        adam_step(b, g, AdamState.zeros(8), cfg)
        np.testing.assert_array_equal(a, b)
