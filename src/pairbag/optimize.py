"""Training numerics: label smoothing, binary cross-entropy, Adam, gradients.

Everything here is a pure function over explicit state. The gradient of the
smoothed loss is computed analytically by backpropagation through the
siamese forward pass and is verified against central finite differences in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        if not 0 < self.adam_beta1 < 1 or not 0 < self.adam_beta2 < 1:
            raise ValueError("adam betas must lie in (0, 1)")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0):
            raise ValueError(f"adam_eps must be finite and > 0, got {self.adam_eps}")


@dataclass
class AdamState:
    """First/second moment estimates plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

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
    return float(np.mean(values))


def gradient(model, batch, config: TrainConfig) -> np.ndarray:
    """Mean gradient of the smoothed loss over a batch, flat like the weights.

    `batch` is a (pre, post, labels) triple of arrays. Raises if the batch
    is empty or any intermediate is non-finite.
    """
    from pairbag.learner import loss_and_gradient  # deferred: learner imports optimize

    pre, post, labels = batch
    pre = np.atleast_2d(np.asarray(pre, dtype=np.float64))
    post = np.atleast_2d(np.asarray(post, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    if pre.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    targets = smooth_target(labels, config.alpha)
    _, grad = loss_and_gradient(model, pre, post, targets)
    return grad


def adam_step(
    weights: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns new weights and state."""
    if weights.shape != grad.shape or weights.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: weights {weights.shape}, grad {grad.shape}, "
            f"state {state.m.shape}"
        )
    t = state.t + 1
    m = config.adam_beta1 * state.m + (1.0 - config.adam_beta1) * grad
    v = config.adam_beta2 * state.v + (1.0 - config.adam_beta2) * (grad * grad)
    m_hat = m / (1.0 - config.adam_beta1**t)
    v_hat = v / (1.0 - config.adam_beta2**t)
    new_weights = weights - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)
    return new_weights, AdamState(m=m, v=v, t=t)
