"""Training numerics: label smoothing, binary cross-entropy, Adam, gradients.

Everything here is a function over explicit state; adam_step updates its
arguments in place. The gradient of the smoothed loss is computed
analytically by backpropagation through the siamese forward pass and is
verified against central finite differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Scores are clamped this far inside (0, 1) before taking logs.
SCORE_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one base-model training run."""

    iterations: int
    learning_rate: float = 0.001
    alpha: float = 0.1
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.alpha < 1:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha}")
        for name in ("adam_beta1", "adam_beta2"):
            value = getattr(self, name)
            if not 0 < value < 1:
                raise ValueError(f"adam betas must lie in (0, 1), got {name} = {value}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter, and two scratch
    vectors of m's shape that adam_step computes its update in."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def zeros(cls, n: int) -> "AdamState":
        return cls(m=np.zeros(n), v=np.zeros(n), t=0)


def smooth_target(label, alpha: float):
    """Two-class smoothed target for a single sigmoid output.

    target = label * (1 - alpha) + alpha / 2, mapping {0, 1} into
    [alpha/2, 1 - alpha/2]. Accepts scalars or arrays.
    """
    if not 0 <= alpha < 1:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return np.asarray(label, dtype=np.float64) * (1.0 - alpha) + alpha / 2.0


def loss(score, target):
    """Binary cross-entropy -[t log s + (1-t) log(1-s)], meaned over arrays.

    Scores are clamped to [SCORE_CLAMP, 1 - SCORE_CLAMP] so saturated
    sigmoids cannot produce non-finite values.
    """
    s = np.clip(np.asarray(score, dtype=np.float64), SCORE_CLAMP, 1.0 - SCORE_CLAMP)
    t = np.asarray(target, dtype=np.float64)
    values = -(t * np.log(s) + (1.0 - t) * np.log1p(-s))
    # np.mean's own reduction and divide, without its Python wrapper.
    return float(np.add.reduce(values, axis=None) / values.size)


def gradient(model, batch, config: TrainConfig) -> np.ndarray:
    """Mean gradient of the smoothed loss over a batch, flat like the weights.

    `batch` is (pre, post, labels): nonempty (n, d) pairs with one label each,
    else ValueError; a non-finite intermediate raises TrainingError.
    """
    from pairbag.learner import loss_and_gradient  # deferred: learner imports optimize

    pre, post, labels = (np.asarray(a) for a in batch)
    return loss_and_gradient(model, pre, post, smooth_target(labels, config.alpha))[1]


def adam_step(
    weights: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig
) -> None:
    """One bias-corrected Adam update of `weights`, `state.m`, `state.v` and
    `state.t`, in place. The ufuncs keep the operation order of the
    allocating formula, so they give its bytes and allocate nothing. A grad
    not in the moments' dtype is widened into scratch first, not squared in its own."""
    if weights.shape != grad.shape or weights.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: weights {weights.shape}, grad {grad.shape}, "
            f"state {state.m.shape}"
        )
    b1, b2 = config.adam_beta1, config.adam_beta2
    m, v, (a, b) = state.m, state.v, state.scratch
    if grad.dtype != m.dtype:  # b is next written after grad's last read
        np.copyto(b, grad)
        grad = b
    state.t += 1
    # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
    np.add(np.multiply(m, b1, out=m), np.multiply(grad, 1.0 - b1, out=a), out=m)
    np.multiply(np.multiply(grad, grad, out=a), 1.0 - b2, out=a)
    np.add(np.multiply(v, b2, out=v), a, out=v)
    # w -= (lr * m_hat) / (sqrt(v_hat) + eps), m_hat = m / (1 - b1**t), v_hat likewise
    np.multiply(np.divide(m, 1.0 - b1**state.t, out=a), config.learning_rate, out=a)
    np.sqrt(np.divide(v, 1.0 - b2**state.t, out=b), out=b)
    np.add(b, config.adam_eps, out=b)
    np.subtract(weights, np.divide(a, b, out=a), out=weights)
