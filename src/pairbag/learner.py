"""Siamese pair classifiers: shared-extractor MLPs with a concatenation head.

A base model applies one feature extractor to both the pre and post vectors,
concatenates the two feature blocks, and maps them through a hidden layer to
a single logit; the score is its sigmoid. Weights live in one flat float64
vector so training and freezing can treat the model as plain numerics.

Two initialization modes exist, the experiment's ARMS: `scratch` (every
parameter trains) and `transfer` (the extractor is copied from a frozen
pretrained one and only the head trains). "Pretrained" here means trained on
an auxiliary synthetic source task and then frozen, standing in for
large-corpus pretraining.
"""

from __future__ import annotations

import operator
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from pairbag import blas
from pairbag.data import PairDataset
from pairbag.optimize import AdamState, TrainConfig, adam_step, loss, smooth_target

ARMS = ("scratch", "transfer")


class TrainingError(RuntimeError):
    """Raised when a training run produces a non-finite loss or gradient."""


@dataclass(frozen=True)
class SiameseTopology:
    """Layer widths of the shared extractor and the pair head.

    extractor_sizes runs input d -> hidden sizes -> feature size f; the head
    maps the concatenated 2f features through `head_hidden` to one logit.
    All activations are ReLU.
    """

    extractor_sizes: tuple[int, ...]
    head_hidden: int

    def __post_init__(self) -> None:
        widths = (*self.extractor_sizes, self.head_hidden)
        try:
            *sizes, head_hidden = map(operator.index, widths)
        except TypeError:
            raise ValueError(f"layer widths {widths} must be integers") from None
        if len(sizes) < 2:
            raise ValueError("extractor needs at least input and feature sizes")
        if any(s < 1 for s in sizes) or head_hidden < 1:
            raise ValueError("all layer sizes must be >= 1")
        object.__setattr__(self, "extractor_sizes", tuple(sizes))
        object.__setattr__(self, "head_hidden", head_hidden)

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
        return _param_count(self.layer_shapes())

    @property
    def extractor_param_count(self) -> int:
        return _param_count(self.layer_shapes()[:-2])


def _param_count(shapes) -> int:
    """Weights plus biases of linear layers with these (out, in) shapes."""
    return sum(o * (i + 1) for o, i in shapes)


@dataclass(frozen=True, eq=False)
class BaseModel:
    """One pair classifier: a topology plus a flat float64 weight vector."""

    topology: SiameseTopology
    weights: np.ndarray
    init_mode: str = "scratch"

    def __post_init__(self) -> None:
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        if w.shape != (self.topology.param_count,):
            raise ValueError(
                f"weight vector has {w.size} entries, topology needs "
                f"{self.topology.param_count}"
            )
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if self.init_mode not in ARMS:
            raise ValueError(f"init_mode must be one of {ARMS}, got {self.init_mode!r}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def extractor_weights(self) -> np.ndarray:
        return self.weights[: self.topology.extractor_param_count]

    @property
    def head_weights(self) -> np.ndarray:
        return self.weights[self.topology.extractor_param_count :]


def _unpack(weights: np.ndarray, shapes: list) -> list[tuple[np.ndarray, np.ndarray]]:
    """Views (W, b) per layer of `shapes` over the flat vector; W is (out, in)."""
    layers = []
    offset = 0
    for out, inp in shapes:
        w = weights[offset : offset + out * inp].reshape(out, inp)
        offset += out * inp
        b = weights[offset : offset + out]
        offset += out
        layers.append((w, b))
    return layers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so each branch
    # gives the bytes of 1 / (1 + exp(-z)) and exp(z) / (1 + exp(z)).
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _relu_layer(x: np.ndarray, w: np.ndarray, b: np.ndarray, out: np.ndarray | None):
    """ReLU(x @ w.T + b), written into `out` (allocated when None)."""
    z = np.matmul(x, w.T, out=out)
    np.add(z, b, out=z)
    return np.maximum(z, 0.0, out=z)


def _extract(layers: list, x: np.ndarray, acts: list) -> None:
    """The extractor's ReLU layers applied to rows x; layer i writes into acts[i]."""
    for (w, b), out in zip(layers, acts):
        x = _relu_layer(x, w, b, out)


def _head(layers: list, h: np.ndarray, r1: np.ndarray | None = None):
    """Scores of head inputs h and the head's hidden activation r1 (written
    into `r1` when given)."""
    (w1, b1), (w2, b2) = layers
    r1 = _relu_layer(h, w1, b1, r1)
    return _sigmoid((r1 @ w2.T + b2)[:, 0]), r1


def _check_batch(topology: SiameseTopology, pre, post, targets=None) -> int:
    """n, for nonempty (n, d) arrays pre and post and, when given, n targets;
    any other batch raises ValueError."""
    shape, d = pre.shape, topology.input_dim
    if len(shape) != 2 or shape[1] != d or post.shape != shape or not shape[0]:
        raise ValueError(f"pair batch {shape} / {post.shape}: need nonempty (n, input dim {d})")
    if targets is not None and np.shape(targets) != shape[:1]:
        raise ValueError(f"targets of shape {np.shape(targets)} for {shape[0]} pairs")
    return shape[0]


def head_input(model: BaseModel, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """loss_and_gradient's head input [f(pre), f(post)] of n pairs, shape (n, 2f).

    pre and post are (n, d) batches with n >= 1; anything else raises ValueError.
    """
    pre = np.asarray(pre, dtype=np.float64)
    post = np.asarray(post, dtype=np.float64)
    n = _check_batch(model.topology, pre, post)
    layers = _unpack(model.extractor_weights, model.topology.layer_shapes()[:-2])
    d, f = model.topology.input_dim, model.topology.feature_size
    h = np.empty((n, 2 * f))
    # 512 pairs at a time, so that a large test set's hidden layers stay small.
    for start in range(0, n, 512):
        rows = slice(start, start + 512)
        x = np.stack([pre[rows], post[rows]], axis=1).reshape(-1, d)
        _extract(layers, x, [None] * (len(layers) - 1) + [h[rows].reshape(-1, f)])
    return h


def head_scores(
    head: np.ndarray, topology: SiameseTopology, h: np.ndarray, r1: np.ndarray | None = None
) -> np.ndarray:
    """Scores in (0, 1) of head inputs h under the flat head weights `head`;
    the hidden activation is written into `r1` when given."""
    return _head(_unpack(head, topology.layer_shapes()[-2:]), h, r1)[0]


def forward(model: BaseModel, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """Scores in (0, 1) of n pairs; both branches share the extractor weights.

    pre and post are (n, d) batches with n >= 1; anything else raises ValueError.
    """
    return head_scores(model.head_weights, model.topology, head_input(model, pre, post))


def _describe(topology: SiameseTopology, n: int) -> str:
    return f"(n={n}, extractor {topology.extractor_sizes}, head {topology.head_hidden})"


class Workspace:
    """Every intermediate of loss_and_gradient, and of fine_tune's head-only
    steps, for batches of n pairs under one topology, allocated once per
    training run.

    A call given a workspace writes into these buffers and returns `grad`,
    so the next call with the same workspace overwrites that gradient. The
    buffers hold `dtype`, the dtype the call computes in; the weights are
    the model's, which loss_and_gradient casts to it where it reads them.
    """

    def __init__(self, topology: SiameseTopology, n: int, dtype=np.float64) -> None:
        self.topology, self.n = topology, n
        ext = topology.extractor_sizes[1:]
        # One extractor batch: row 2i is pair i's pre vector, row 2i+1 its post.
        self.x = np.empty((2 * n, topology.input_dim), dtype)
        # acts[i]: output of extractor layer i over the 2n rows; the last one,
        # viewed as (n, 2f), is the head input h = [f(pre), f(post)].
        # Backpropagation overwrites it with d(loss)/d(that layer's
        # pre-activation) once the layer above has read it.
        self.acts = [np.empty((2 * n, s), dtype) for s in ext]
        # masks[i]: where acts[i] > 0, taken in the forward pass.
        self.masks = [np.empty((2 * n, s), dtype=bool) for s in ext]
        # The head's hidden activation r1, then dz1.
        self.r1 = np.empty((n, topology.head_hidden), dtype)
        self.r1_mask = np.empty(self.r1.shape, dtype=bool)
        # Each layer's gradient term is written into its view of grad.
        self.grad = np.empty(topology.param_count, dtype)
        self.g_layers = _unpack(self.grad, topology.layer_shapes())

    def check(self, topology: SiameseTopology, n: int) -> None:
        """Raise ValueError unless this workspace was built for (topology, n)."""
        if (topology, n) != (self.topology, self.n):
            raise ValueError(
                f"workspace built for {_describe(self.topology, self.n)} "
                f"cannot hold a batch of {_describe(topology, n)}"
            )


def _term(term: tuple, dz: np.ndarray, x: np.ndarray) -> None:
    """Write dz.T @ x and the column sums of dz into a layer's term (tw, tb)."""
    tw, tb = term
    np.matmul(dz.T, x, out=tw)
    np.add.reduce(dz, axis=0, out=tb)


def _head_backward(work: Workspace, layers: list, h: np.ndarray, targets: np.ndarray) -> float:
    """Mean loss of the head on inputs h; writes its gradient terms into
    work.grad and leaves dz1, d(loss)/d(the head's hidden pre-activation),
    in work.r1."""
    scores, r1 = _head(layers, h, work.r1)
    mean_loss = loss(scores, targets)
    if not np.isfinite(mean_loss):
        raise TrainingError("non-finite loss in forward pass")
    # d(mean BCE)/d(logit) = (score - target) / n for sigmoid outputs. A ReLU
    # output is > 0 exactly where its input is, so masks read activations.
    dlogit = ((scores - targets) / h.shape[0])[:, None]
    g1, g2 = work.g_layers[-2:]
    _term(g2, dlogit, r1)
    mask = np.greater(r1, 0.0, out=work.r1_mask)
    # Masks multiply: np.where or copyto would turn a -0.0 into +0.0.
    dz1 = np.matmul(dlogit, layers[1][0], out=r1)
    np.multiply(dz1, mask, out=dz1)
    _term(g1, dz1, h)
    return mean_loss


def _finite(grad: np.ndarray) -> np.ndarray:
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient")
    return grad


@np.errstate(over="ignore", invalid="ignore")
def loss_and_gradient(
    model: BaseModel,
    pre: np.ndarray,
    post: np.ndarray,
    targets: np.ndarray,
    work: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Mean smoothed-target BCE over the batch and its analytic gradient.

    pre and post are nonempty (n, d) arrays and targets (n,), or ValueError.
    The extractor runs once on 2n rows, pair i's pre row at 2i and its post
    row at 2i+1: each weight gradient is one product over both branches, and
    its output viewed as (n, 2f) is the head input. Raises TrainingError on
    non-finite intermediates, which numpy's overflow and invalid-value
    warnings would only repeat, so those are off in every calling thread.

    `work` holds every intermediate; without it a fresh float64 Workspace
    is built. The pass runs in its dtype, on the model's weights cast to it,
    and returns work.grad: the next call with the same workspace overwrites
    it. A workspace built for another topology or row count raises ValueError.
    """
    topology = model.topology
    n = _check_batch(topology, pre, post, targets)
    if work is None:
        work = Workspace(topology, n)
    work.check(topology, n)
    layers = _unpack(model.weights.astype(work.grad.dtype, copy=False), topology.layer_shapes())
    n_ext = len(topology.extractor_sizes) - 1
    ext, acts, masks = layers[:n_ext], work.acts, work.masks
    np.copyto(work.x[0::2], pre)
    np.copyto(work.x[1::2], post)
    _extract(ext, work.x, acts)
    for a, mask in zip(acts, masks):
        np.greater(a, 0.0, out=mask)
    h = acts[-1].reshape(n, -1)

    mean_loss = _head_backward(work, layers[n_ext:], h, targets)

    # d(loss)/d(h) from dz1: d(loss)/d(features) of every pre and post row.
    np.matmul(work.r1, layers[n_ext][0], out=h)
    for li in range(n_ext - 1, -1, -1):
        dz = np.multiply(acts[li], masks[li], out=acts[li])
        _term(work.g_layers[li], dz, acts[li - 1] if li else work.x)
        if li:
            np.matmul(dz, ext[li][0], out=acts[li - 1])
    return mean_loss, _finite(work.grad)


def run_now(fn, *args) -> Future:
    """fn(*args) run here and now, as a finished Future."""
    done = Future()
    done.set_result(fn(*args))
    return done


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


def init_transfer(topology: SiameseTopology, pretrained: BaseModel, seed: int) -> BaseModel:
    """Model whose extractor is the pretrained model's, frozen; head is fresh.

    Head weights use the same fan-in scheme as init_scratch, drawn from
    `seed`. fine_tune will leave the extractor slice bitwise untouched.
    """
    sizes = pretrained.topology.extractor_sizes
    if sizes != topology.extractor_sizes:
        raise ValueError(
            f"pretrained extractor sizes {sizes} do not match topology {topology.extractor_sizes}"
        )
    weights = _init_weights(topology, seed, extractor=pretrained.extractor_weights)
    return BaseModel(topology=topology, weights=weights, init_mode="transfer")


def fine_tune(
    model: BaseModel, indices: np.ndarray, dataset: PairDataset, config: TrainConfig
) -> tuple[BaseModel, np.ndarray]:
    """Train a model on dataset rows `indices` with full-batch Adam.

    In transfer mode the frozen extractor maps the rows to head inputs once
    and Adam trains the head slice alone. The trainable slice is copied once
    into a buffer that Adam updates in place, and every step writes its
    intermediates into one Workspace built here. Returns the trained model
    and the training-loss trace (one entry per iteration, evaluated before
    each step; no monotonicity is promised). A TrainingError names the
    1-based iteration.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("training index set is empty")
    pre = dataset.pre[idx]
    post = dataset.post[idx]
    targets = smooth_target(dataset.labels[idx], config.alpha)
    topology = model.topology
    n_frozen = topology.extractor_param_count if model.init_mode == "transfer" else 0
    h = head_input(model, pre, post) if n_frozen else None
    work = Workspace(topology, idx.size)
    trainable = model.weights[n_frozen:].copy()
    state = AdamState.zeros(trainable.size)
    if n_frozen:
        # Views of the buffer, so each step reads the head weights Adam last wrote.
        head = _unpack(trainable, topology.layer_shapes()[-2:])
    else:
        # BaseModel marks its view of the buffer read-only; Adam writes the buffer.
        step_model = BaseModel(topology, trainable[:])
    trace = np.empty(config.iterations)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(config.iterations):
            try:
                if n_frozen:
                    trace[step] = _head_backward(work, head, h, targets)
                    grad = _finite(work.grad[n_frozen:])
                else:
                    trace[step], grad = loss_and_gradient(step_model, pre, post, targets, work=work)
            except TrainingError as exc:
                raise TrainingError(f"iteration {step + 1}: {exc}") from exc
            adam_step(trainable, grad, state, config)
    weights = np.concatenate([model.weights[:n_frozen], trainable])
    return BaseModel(topology=topology, weights=weights, init_mode=model.init_mode), trace


def pretrain_extractor(
    source: PairDataset, topology: SiameseTopology, budget: int, seed: int
) -> BaseModel:
    """The scratch model trained on every source row for `budget` full-batch
    Adam steps; init_transfer freezes its extractor.

    The source dataset must be disjoint from any evaluation data; with
    budget 0 the model equals its scratch initialization. Each step's
    gradient is the row-weighted mean of the gradients of the source's first
    and second halves, each with its own Workspace, so a source of fewer
    than 2 pairs raises ValueError. The halves' forward and backward passes
    run in float32 on the weights cast to float32; their mean, the weights
    and Adam's moments stay float64. A source that does not fit float32's
    range raises ValueError before the first step. BLAS runs one
    thread, whatever the caller's count, which is restored on return, and
    the second half runs on a second thread meanwhile. Where OpenBLAS cannot
    be pinned, both halves run on the calling thread, with the same bytes.
    A TrainingError names pretraining and the 1-based iteration.
    """
    n = len(source)
    if n < 2:
        raise ValueError(f"pretraining needs >= 2 source pairs, one per half; got {n}")
    config = TrainConfig(iterations=budget)
    # Allocated first and returned as the model's weights: a final copy
    # would sit in the heap above the freed halves' buffers.
    weights = _init_weights(topology, seed)
    model = BaseModel(topology, weights[:])
    with np.errstate(over="ignore"):
        pre, post = source.pre.astype(np.float32), source.post.astype(np.float32)
    if not (np.isfinite(pre).all() and np.isfinite(post).all()):
        raise ValueError(
            "pretraining computes in float32, and the source pairs exceed its range "
            f"(about {float(np.finfo(np.float32).max):.1e}): lower separation or noise_scale"
        )
    targets = smooth_target(source.labels, config.alpha).astype(np.float32)
    cut = n // 2
    halves = [
        (model, pre[rows], post[rows], targets[rows], Workspace(topology, size, np.float32))
        for rows, size in ((slice(cut), cut), (slice(cut, n), n - cut))
    ]
    grad, second_part = np.empty(weights.size), np.empty(weights.size)
    state = AdamState.zeros(weights.size)
    with blas.one_thread() as pinned, ThreadPoolExecutor(max_workers=1) as pool:
        submit = pool.submit if pinned else run_now
        for step in range(budget):
            try:
                second = submit(loss_and_gradient, *halves[1])
                _, first_grad = loss_and_gradient(*halves[0])
                _, second_grad = second.result()
            except TrainingError as exc:
                raise TrainingError(f"pretraining iteration {step + 1}: {exc}") from exc
            np.multiply(first_grad, cut / n, out=grad, dtype=np.float64)
            np.multiply(second_grad, (n - cut) / n, out=second_part, dtype=np.float64)
            adam_step(weights, np.add(grad, second_part, out=grad), state, config)
    return BaseModel(topology=topology, weights=weights, init_mode="scratch")
