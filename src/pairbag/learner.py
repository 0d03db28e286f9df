"""Siamese pair classifiers: shared-extractor MLPs with a concatenation head.

A base model applies one feature extractor to both the pre and post vectors,
concatenates the two feature blocks, and maps them through a hidden layer
(width 128 by default) to a single logit; the score is its sigmoid. Weights
live in one flat float64 vector so training, freezing, and serialization can
treat the model as plain numerics.

Two initialization modes exist: `scratch` (every parameter trains) and
`transfer` (the extractor is copied from a frozen pretrained one and only
the head trains). "Pretrained" here means trained on an auxiliary synthetic
source task and then frozen, standing in for large-corpus pretraining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pairbag.data import PairDataset
from pairbag.optimize import AdamState, TrainConfig, adam_step, loss, smooth_target


class TrainingError(RuntimeError):
    """Raised when a training run produces a non-finite loss or gradient."""


@dataclass(frozen=True)
class SiameseTopology:
    """Layer widths of the shared extractor and the pair head.

    extractor_sizes runs input d -> hidden sizes -> feature size f; the head
    maps the concatenated 2f features through `head_hidden` (128 by default)
    to one logit. All activations are ReLU.
    """

    extractor_sizes: tuple[int, ...]
    head_hidden: int = 128

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.extractor_sizes)
        if len(sizes) < 2:
            raise ValueError("extractor needs at least input and feature sizes")
        if any(s < 1 for s in sizes) or self.head_hidden < 1:
            raise ValueError("all layer sizes must be >= 1")
        object.__setattr__(self, "extractor_sizes", sizes)

    @property
    def input_dim(self) -> int:
        return self.extractor_sizes[0]

    @property
    def feature_size(self) -> int:
        return self.extractor_sizes[-1]

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(out, in) per linear layer: extractor layers, then the two head layers."""
        ext = list(zip(self.extractor_sizes[1:], self.extractor_sizes[:-1]))
        head = [(self.head_hidden, 2 * self.feature_size), (1, self.head_hidden)]
        return ext + head

    @property
    def param_count(self) -> int:
        return sum(o * (i + 1) for o, i in self.layer_shapes())

    @property
    def extractor_param_count(self) -> int:
        ext = zip(self.extractor_sizes[1:], self.extractor_sizes[:-1])
        return sum(o * (i + 1) for o, i in ext)


def default_topology(input_dim: int) -> SiameseTopology:
    """Desk-scale default: extractor d -> 64 -> 32, head 64 -> 128 -> 1."""
    return SiameseTopology(extractor_sizes=(input_dim, 64, 32), head_hidden=128)


@dataclass(frozen=True, eq=False)
class BaseModel:
    """One pair classifier: a topology plus a flat float64 weight vector."""

    topology: SiameseTopology
    weights: np.ndarray
    init_mode: str = "scratch"
    trained: bool = False

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (self.topology.param_count,):
            raise ValueError(
                f"weight vector has {w.size} entries, topology needs "
                f"{self.topology.param_count}"
            )
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if self.init_mode not in ("scratch", "transfer"):
            raise ValueError(f"init_mode must be 'scratch' or 'transfer', got {self.init_mode!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def extractor_weights(self) -> np.ndarray:
        return self.weights[: self.topology.extractor_param_count]

    @property
    def head_weights(self) -> np.ndarray:
        return self.weights[self.topology.extractor_param_count :]


@dataclass(frozen=True, eq=False)
class PretrainedExtractor:
    """Extractor weights trained on a source task, frozen thereafter."""

    extractor_sizes: tuple[int, ...]
    weights: np.ndarray
    source_seed: int

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.extractor_sizes)
        expected = sum(o * (i + 1) for o, i in zip(sizes[1:], sizes[:-1]))
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (expected,):
            raise ValueError(f"extractor weights have {w.size} entries, expected {expected}")
        w.setflags(write=False)
        object.__setattr__(self, "extractor_sizes", sizes)
        object.__setattr__(self, "weights", w)


def _unpack(weights: np.ndarray, topology: SiameseTopology) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer over the flat vector; W is (out, in)."""
    layers = []
    offset = 0
    for out, inp in topology.layer_shapes():
        w = weights[offset : offset + out * inp].reshape(out, inp)
        offset += out * inp
        b = weights[offset : offset + out]
        offset += out
        layers.append((w, b))
    return layers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _extract(layers: list, x: np.ndarray, acts: list | None = None) -> np.ndarray:
    """The extractor's ReLU layers applied to rows x; appends each output to acts."""
    for w, b in layers:
        x = np.maximum(x @ w.T + b, 0.0)
        if acts is not None:
            acts.append(x)
    return x


def _forward(layers: list, n_ext: int, pre: np.ndarray, post: np.ndarray, keep: bool = False):
    """Scores of a pair batch: one extractor walk per branch, then the head.

    Returns (scores, cache). With keep, cache holds what backprop reads: per
    branch the input and every extractor output, the head input h and the
    head's hidden activation r1. Without it cache is None, so scoring holds
    no activation past its use.
    """
    branches = [[x] if keep else None for x in (pre, post)]
    h = np.concatenate(
        [_extract(layers[:n_ext], x, acts) for x, acts in zip((pre, post), branches)], axis=1
    )
    (w1, b1), (w2, b2) = layers[n_ext:]
    r1 = np.maximum(h @ w1.T + b1, 0.0)
    scores = _sigmoid((r1 @ w2.T + b2)[:, 0])
    return scores, ((branches, h, r1) if keep else None)


def forward(model: BaseModel, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Scores in (0, 1) of n pairs; both branches share the extractor weights.

    pre and post are (n, d) batches; any other shape raises ValueError.
    """
    pre = np.asarray(pre, dtype=np.float64)
    post = np.asarray(post, dtype=np.float64)
    d = model.topology.input_dim
    if pre.ndim != 2 or pre.shape[1] != d or post.shape != pre.shape:
        raise ValueError(
            f"pair batch shapes {pre.shape} / {post.shape} are not (n, input dim {d})"
        )
    n_ext = len(model.topology.extractor_sizes) - 1
    scores, _ = _forward(_unpack(model.weights, model.topology), n_ext, pre, post)
    return scores


def loss_and_gradient(
    model: BaseModel, pre: np.ndarray, post: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean smoothed-target BCE over the batch and its analytic gradient.

    Backpropagates through both siamese branches, summing each branch's
    contribution into the shared extractor gradients. Raises TrainingError
    on non-finite intermediates.
    """
    topology = model.topology
    layers = _unpack(model.weights, topology)
    n_ext = len(topology.extractor_sizes) - 1
    n = pre.shape[0]
    scores, (branches, h, r1) = _forward(layers, n_ext, pre, post, keep=True)
    mean_loss = loss(scores, targets)
    if not np.isfinite(mean_loss):
        raise TrainingError("non-finite loss in forward pass")

    grad = np.zeros_like(model.weights)
    g_layers = _unpack(grad, topology)

    # d(mean BCE)/d(logit) = (score - target) / n for sigmoid outputs. A ReLU
    # output is > 0 exactly where its input is, so masks read activations.
    dlogit = ((scores - targets) / n)[:, None]
    w1 = layers[n_ext][0]
    w2 = layers[n_ext + 1][0]
    gw2, gb2 = g_layers[n_ext + 1]
    gw2 += dlogit.T @ r1
    gb2 += dlogit.sum(axis=0)
    dr1 = dlogit @ w2
    dz1 = dr1 * (r1 > 0.0)
    gw1, gb1 = g_layers[n_ext]
    gw1 += dz1.T @ h
    gb1 += dz1.sum(axis=0)
    dh = dz1 @ w1

    f = topology.feature_size
    for acts, dfeat in zip(branches, (dh[:, :f], dh[:, f:])):
        da = dfeat
        for li in range(n_ext - 1, -1, -1):
            dz = da * (acts[li + 1] > 0.0)
            gw, gb = g_layers[li]
            gw += dz.T @ acts[li]
            gb += dz.sum(axis=0)
            if li > 0:
                da = dz @ layers[li][0]
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient")
    return mean_loss, grad


INIT_GAIN = np.sqrt(6.0)


def init_bound(fan_in: int) -> float:
    """Half-width of the uniform init for a layer with the given fan-in.

    The rectifier-gain bound sqrt(6/fan_in) keeps activation magnitudes
    roughly constant across ReLU layers, which matters here because the
    small fixed fine-tuning budgets rely on reasonably sized features.
    """
    return float(INIT_GAIN / np.sqrt(fan_in))


def _init_weights(
    topology: SiameseTopology, seed: int, extractor: np.ndarray | None = None
) -> np.ndarray:
    """Flat fan-in-uniform weights: per layer W, then b, in layer order.

    With `extractor`, those weights fill the extractor slice and only the
    head layers are drawn, from the same one rng stream seeded by `seed`.
    """
    rng = np.random.default_rng(seed)
    weights = np.empty(topology.param_count)
    shapes = topology.layer_shapes()
    offset = 0
    if extractor is not None:
        offset = topology.extractor_param_count
        weights[:offset] = extractor
        shapes = shapes[len(topology.extractor_sizes) - 1 :]
    for out, inp in shapes:
        bound = init_bound(inp)
        for size in (out * inp, out):
            weights[offset : offset + size] = rng.uniform(-bound, bound, size)
            offset += size
    return weights


def init_scratch(topology: SiameseTopology, seed: int) -> BaseModel:
    """Fresh model with scaled-uniform fan-in init: U(-sqrt(6/fan_in), +).

    Per layer, W is drawn first and then b, both from the same bound, in
    layer order; deterministic given the seed.
    """
    weights = _init_weights(topology, seed)
    return BaseModel(topology=topology, weights=weights, init_mode="scratch")


def init_transfer(
    topology: SiameseTopology, pretrained: PretrainedExtractor, seed: int
) -> BaseModel:
    """Model whose extractor is the frozen pretrained one; head is fresh.

    Head weights use the same fan-in scheme as init_scratch, drawn from
    `seed`. fine_tune will leave the extractor slice bitwise untouched.
    """
    if pretrained.extractor_sizes != topology.extractor_sizes:
        raise ValueError(
            f"pretrained extractor sizes {pretrained.extractor_sizes} do not match "
            f"topology {topology.extractor_sizes}"
        )
    weights = _init_weights(topology, seed, extractor=pretrained.weights)
    return BaseModel(topology=topology, weights=weights, init_mode="transfer")


def fine_tune(
    model: BaseModel,
    indices: np.ndarray,
    dataset: PairDataset,
    config: TrainConfig,
) -> tuple[BaseModel, np.ndarray]:
    """Train a model on dataset rows `indices` with full-batch Adam.

    In transfer mode only head parameters change. Returns the trained model
    and the training-loss trace (one entry per iteration, evaluated before
    each step; no monotonicity is promised). A TrainingError names the
    1-based iteration that diverged.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("training index set is empty")
    pre = dataset.pre[idx]
    post = dataset.post[idx]
    targets = smooth_target(dataset.labels[idx], config.alpha)
    weights = model.weights.copy()
    state = AdamState.zeros(weights.size)
    trace = np.empty(config.iterations)
    n_frozen = model.topology.extractor_param_count if model.init_mode == "transfer" else 0
    for step in range(config.iterations):
        step_model = BaseModel(
            topology=model.topology, weights=weights, init_mode=model.init_mode
        )
        try:
            step_loss, grad = loss_and_gradient(step_model, pre, post, targets)
        except TrainingError as exc:
            raise TrainingError(f"iteration {step + 1}: {exc}") from exc
        if n_frozen:
            grad[:n_frozen] = 0.0  # zero grad + zero moments leave frozen slice bitwise intact
        weights, state = adam_step(weights, grad, state, config)
        trace[step] = step_loss
    trained = BaseModel(
        topology=model.topology, weights=weights, init_mode=model.init_mode, trained=True
    )
    return trained, trace


def pretrain_extractor(
    source: PairDataset, topology: SiameseTopology, budget: int, seed: int
) -> PretrainedExtractor:
    """Train a scratch model on every source row for `budget` steps, then
    freeze its extractor.

    The source dataset must be disjoint from any evaluation data; with
    budget 0 the extractor equals its scratch initialization.
    """
    config = TrainConfig(iterations=budget)
    trained, _ = fine_tune(init_scratch(topology, seed), np.arange(len(source)), source, config)
    return PretrainedExtractor(
        extractor_sizes=topology.extractor_sizes,
        weights=trained.extractor_weights.copy(),
        source_seed=seed,
    )
