"""Reference two-layer graph convolution classifier with hand-derived gradients.

Everything is dense float64 numpy. Training is full-batch gradient descent
over all labeled day-examples at once. They share one propagation matrix A,
so they are stacked node-major, as (node, example) rows, and one GEMM
propagates every example. With two classes the softmax is the logistic of
the logit difference, so each epoch sends a single column through A forward
and one back. ``train`` and ``loss_and_gradients`` run the same routine.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .exceptions import TrainingDivergedError
from .graphs import Graph

MISSING_LABEL = -1

EMBEDDING_MODES = ("model_based", "direct")


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Symmetrically normalized adjacency with self-loops, fixed per dataset."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.ascontiguousarray(self.matrix, dtype=float)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def node_count(self) -> int:
        return self.matrix.shape[0]


def build_normalized_adjacency(g: Graph) -> NormalizedAdjacency:
    """D^{-1/2} (A + I) D^{-1/2}; isolated nodes keep a unit self-loop."""
    a = g.adjacency_matrix() + np.eye(g.node_count)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return NormalizedAdjacency(a * inv_sqrt[:, None] * inv_sqrt[None, :])


@dataclass
class GcnParams:
    """Layer weights: w1 maps features to hidden, w2 maps hidden to 2 logits."""

    w1: np.ndarray
    w2: np.ndarray

    def __post_init__(self) -> None:
        self.w1 = np.asarray(self.w1, dtype=float)
        self.w2 = np.asarray(self.w2, dtype=float)
        if self.w1.ndim != 2 or self.w2.ndim != 2 or self.w2.shape[1] != 2:
            raise ValueError("w1 must be (features, hidden) and w2 (hidden, 2)")
        if self.w1.shape[1] != self.w2.shape[0]:
            raise ValueError("hidden dimensions of w1 and w2 disagree")
        if not (np.isfinite(self.w1).all() and np.isfinite(self.w2).all()):
            raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class ModelOutput:
    probabilities: np.ndarray
    hidden: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    hidden_dim: int = 16
    learning_rate: float = 0.05
    epochs: int = 200


def init_params(seed: int, feature_dim: int, hidden_dim: int) -> GcnParams:
    """Uniform init in +-1/sqrt(fan_in), deterministic per seed."""
    rng = np.random.default_rng(seed)
    b1 = 1.0 / np.sqrt(feature_dim)
    b2 = 1.0 / np.sqrt(hidden_dim)
    return GcnParams(
        rng.uniform(-b1, b1, size=(feature_dim, hidden_dim)),
        rng.uniform(-b2, b2, size=(hidden_dim, 2)),
    )


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: GcnParams, adj: NormalizedAdjacency, x: np.ndarray) -> ModelOutput:
    """hidden = relu(A x w1); probabilities = row-softmax(A hidden w2)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != adj.node_count or x.shape[1] != params.w1.shape[0]:
        raise ValueError(
            f"features must be ({adj.node_count}, {params.w1.shape[0]}), got {x.shape}"
        )
    hidden = np.maximum(adj.matrix @ x @ params.w1, 0.0)
    probs = _softmax_rows(adj.matrix @ hidden @ params.w2)
    return ModelOutput(probabilities=probs, hidden=hidden)


@dataclass(frozen=True)
class _Batch:
    """Day-examples stacked node-major: row ``i * examples + e`` is node i of example e."""

    ax: np.ndarray  # (nodes * examples, features): A @ x of every example
    rows: np.ndarray  # labelled rows, ascending
    sign: np.ndarray  # per labelled row: +1 for label 1, -1 for label 0
    weight: np.ndarray  # per labelled row: 1 / (mask size * examples)


_EXAMPLE_CHECKS = (
    "features must be ({n}, {d})",
    "empty mask",
    "mask repeats a node",
    "mask node outside [0, {n})",
    "masked nodes must have labels",
    "labels must be 0 or 1",
)


def _stack_examples(
    adj: NormalizedAdjacency,
    labeled_examples: Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]],
) -> _Batch:
    """Check and stack every example in one pass over their concatenated masks.

    A ValueError names the first failing example and the first of
    :data:`_EXAMPLE_CHECKS` it fails.
    """
    examples = list(labeled_examples)
    if not examples:
        raise ValueError("need at least one labeled example")
    n = adj.node_count
    e = len(examples)
    feature_dim = np.asarray(examples[0][0]).shape[1]
    masks = [list(mask) for _, _, mask in examples]
    sizes = np.array([len(mask) for mask in masks])
    example = np.repeat(np.arange(e), sizes)
    node = np.fromiter(chain.from_iterable(masks), dtype=int, count=example.size)
    node = node[np.lexsort((node, example))]  # each example's mask ascending

    outside = (node < 0) | (node >= n)
    safe = np.where(outside, 0, node)
    bounds = np.cumsum(sizes)[:-1]
    picked = np.concatenate(
        [
            np.asarray(labels, dtype=int)[part]
            for (_, labels, _), part in zip(examples, np.split(safe, bounds))
        ]
    )
    repeats = np.flatnonzero((np.diff(node) == 0) & (np.diff(example) == 0)) + 1
    failed = np.zeros((len(_EXAMPLE_CHECKS), e), dtype=bool)
    failed[0] = [np.shape(features) != (n, feature_dim) for features, _, _ in examples]
    failed[1] = sizes == 0
    failed[2, example[repeats]] = True
    failed[3, example[outside]] = True
    failed[4, example[picked == MISSING_LABEL]] = True
    failed[5, example[(picked != 0) & (picked != 1)]] = True
    if failed.any():
        i = int(failed.any(axis=0).argmax())
        check = _EXAMPLE_CHECKS[int(failed[:, i].argmax())]
        raise ValueError(f"example {i}: " + check.format(n=n, d=feature_dim))

    x = np.stack([np.asarray(features, dtype=float) for features, _, _ in examples], axis=1)
    weight = np.zeros((n, e))
    sign = np.zeros((n, e))
    weight[node, example] = 1.0 / (sizes[example] * e)
    sign[node, example] = 2.0 * picked - 1.0
    ax = (adj.matrix @ x.reshape(n, -1)).reshape(n * e, feature_dim)
    rows = np.flatnonzero(weight)
    return _Batch(ax, rows, sign.ravel()[rows], weight.ravel()[rows])


class _Workspace:
    """The buffers of ``_batch_loss_and_gradients``, allocated once per batch.

    Every array with one entry per stacked (node, example) row lives here and
    is filled in place each epoch, so an epoch allocates only the per-labelled-
    row logistic temporaries and the (features, hidden) gradient of w1.
    """

    def __init__(self, batch: _Batch, nodes: int, hidden_dim: int) -> None:
        rows, features = batch.ax.shape
        self.hidden = np.empty((rows, hidden_dim))  # z1 = ax @ w1, then relu in place
        self.active = np.empty((rows, hidden_dim))  # 1.0 where z1 > 0, else 0.0
        self.col = np.empty(rows)  # hidden @ dw
        self.s = np.empty(rows)  # logit difference, A @ col
        self.d_s = np.zeros(rows)  # d loss / d s; unlabelled rows stay 0
        self.back = np.empty(rows)  # A @ d_s
        self.ax_t = np.ascontiguousarray(batch.ax.T)  # (features, rows)
        self.ax_back_t = np.empty((features, rows))  # (ax * back[:, None]).T
        self.g_w2 = np.empty((hidden_dim, 2), order="F")  # [-g, g], columns contiguous
        self.scale = -batch.weight * batch.sign
        # node-major (nodes, examples) views for the two products with A
        self.col_nodes = self.col.reshape(nodes, -1)
        self.s_nodes = self.s.reshape(nodes, -1)
        self.d_s_nodes = self.d_s.reshape(nodes, -1)
        self.back_nodes = self.back.reshape(nodes, -1)


def _batch_loss_and_gradients(
    params: GcnParams, a: np.ndarray, batch: _Batch, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """True-class probabilities of the labelled rows and the exact loss gradients.

    The loss is the weighted cross-entropy ``-(log(picked) * batch.weight).sum()``;
    it is finite exactly when ``picked.min() > 0``, since every probability
    lies in [0, 1] and the weights sum to 1. With two classes the softmax of a
    row is the logistic of its logit difference s = A relu(A x w1) dw, where
    dw = w2[:, 1] - w2[:, 0]. So one column goes through A forward and one
    back, and the gradient of w2 is [-g, g]. The returned w2 gradient is a
    workspace buffer, overwritten by the next call.
    """
    dw = params.w2[:, 1] - params.w2[:, 0]
    np.matmul(batch.ax, params.w1, out=ws.hidden)
    np.greater(ws.hidden, 0.0, out=ws.active)
    np.maximum(ws.hidden, 0.0, out=ws.hidden)
    np.matmul(ws.hidden, dw, out=ws.col)
    np.matmul(a, ws.col_nodes, out=ws.s_nodes)

    margin = ws.s[batch.rows] * batch.sign  # true-class logit minus the other
    decay = np.exp(-np.abs(margin))  # never overflows
    share = 1.0 / (1.0 + decay)
    right = margin >= 0
    wrong_share = decay * share
    picked = np.where(right, share, wrong_share)

    ws.d_s[batch.rows] = ws.scale * np.where(right, wrong_share, share)
    np.matmul(a, ws.d_s_nodes, out=ws.back_nodes)  # A is symmetric
    np.matmul(ws.hidden.T, ws.back, out=ws.g_w2[:, 1])
    np.negative(ws.g_w2[:, 1], out=ws.g_w2[:, 0])
    np.multiply(ws.ax_t, ws.back, out=ws.ax_back_t)
    g_w1 = ws.ax_back_t @ ws.active
    g_w1 *= dw
    return picked, g_w1, ws.g_w2


def loss_and_gradients(
    params: GcnParams,
    adj: NormalizedAdjacency,
    labeled_examples: Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]],
) -> tuple[float, GcnParams]:
    """The loss ``train`` minimizes and its exact gradients w.r.t. both weight matrices.

    ``labeled_examples`` are ``train``'s (features, labels, mask) triples; the
    loss is the mean over examples of each mask's mean cross-entropy. It is
    infinite once a labelled node's true-class probability underflows to 0.
    """
    batch = _stack_examples(adj, labeled_examples)
    if batch.ax.shape[1] != params.w1.shape[0]:
        raise ValueError(f"features must have {params.w1.shape[0]} columns")
    ws = _Workspace(batch, adj.node_count, params.w1.shape[1])
    picked, g_w1, g_w2 = _batch_loss_and_gradients(params, adj.matrix, batch, ws)
    loss = float(-(np.log(picked) * batch.weight).sum()) if picked.min() > 0 else np.inf
    return loss, GcnParams(g_w1, g_w2)


def train(
    params_init_seed: int,
    adj: NormalizedAdjacency,
    labeled_examples: Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]],
    hyper: TrainConfig = TrainConfig(),
) -> GcnParams:
    """Full-batch gradient descent on the loss of ``loss_and_gradients``.

    ``labeled_examples`` is a list of (features, labels, mask) triples that
    all share ``adj``. Deterministic given the init seed. Raises
    ``TrainingDivergedError`` at the first epoch whose loss is infinite.
    """
    batch = _stack_examples(adj, labeled_examples)
    params = init_params(params_init_seed, batch.ax.shape[1], hyper.hidden_dim)
    ws = _Workspace(batch, adj.node_count, hyper.hidden_dim)
    for epoch in range(hyper.epochs):
        picked, g_w1, g_w2 = _batch_loss_and_gradients(params, adj.matrix, batch, ws)
        if not picked.min() > 0:
            raise TrainingDivergedError(epoch)
        params.w1 -= hyper.learning_rate * g_w1
        params.w2 -= hyper.learning_rate * g_w2
    return params


def embed(
    mode: str,
    params: GcnParams | None,
    adj: NormalizedAdjacency,
    x: np.ndarray,
) -> np.ndarray:
    """Node embeddings: the trained hidden layer, or two untrained propagation hops."""
    if mode == "model_based":
        if params is None:
            raise ValueError("model_based embeddings require trained parameters")
        return forward(params, adj, x).hidden
    if mode == "direct":
        x = np.asarray(x, dtype=float)
        return adj.matrix @ (adj.matrix @ x)
    raise ValueError(f"unknown embedding mode {mode!r}; expected one of {EMBEDDING_MODES}")
