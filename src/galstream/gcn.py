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


def _stack_examples(
    adj: NormalizedAdjacency,
    labeled_examples: Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]],
) -> _Batch:
    examples = list(labeled_examples)
    if not examples:
        raise ValueError("need at least one labeled example")
    n = adj.node_count
    e = len(examples)
    feature_dim = np.asarray(examples[0][0]).shape[1]
    x = np.empty((n, e, feature_dim))
    weight = np.zeros((n, e))
    sign = np.zeros((n, e))
    for i, (features, labels, mask) in enumerate(examples):
        features = np.asarray(features, dtype=float)
        if features.shape != (n, feature_dim):
            raise ValueError(f"example {i}: features must be ({n}, {feature_dim})")
        mask = np.asarray(sorted(mask), dtype=int)
        if mask.size == 0:
            raise ValueError(f"example {i}: empty mask")
        if (np.diff(mask) == 0).any():
            raise ValueError(f"example {i}: mask repeats a node")
        picked = np.asarray(labels, dtype=int)[mask]
        if (picked == MISSING_LABEL).any():
            raise ValueError(f"example {i}: masked nodes must have labels")
        if ((picked != 0) & (picked != 1)).any():
            raise ValueError(f"example {i}: labels must be 0 or 1")
        x[:, i] = features
        weight[mask, i] = 1.0 / (mask.size * e)
        sign[mask, i] = 2.0 * picked - 1.0
    ax = (adj.matrix @ x.reshape(n, -1)).reshape(n * e, feature_dim)
    rows = np.flatnonzero(weight)
    return _Batch(ax, rows, sign.ravel()[rows], weight.ravel()[rows])


def _batch_loss_and_gradients(
    params: GcnParams, a: np.ndarray, batch: _Batch
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted cross-entropy of the labelled rows and its exact gradients.

    With two classes the softmax of a row is the logistic of its logit
    difference s = A relu(A x w1) dw, where dw = w2[:, 1] - w2[:, 0]. So one
    column goes through A forward and one back, and the gradient of w2 is
    [-g, g]. The loss is infinite once a labelled row's true-class
    probability underflows to 0.
    """
    n = a.shape[0]
    dw = params.w2[:, 1] - params.w2[:, 0]
    z1 = batch.ax @ params.w1
    active = z1 > 0
    hidden = np.maximum(z1, 0.0)
    s = (a @ (hidden @ dw).reshape(n, -1)).ravel()

    margin = s[batch.rows] * batch.sign  # true-class logit minus the other
    decay = np.exp(-np.abs(margin))  # never overflows
    share = 1.0 / (1.0 + decay)
    right = margin >= 0
    picked = np.where(right, share, decay * share)
    loss = float(-(np.log(picked) * batch.weight).sum()) if picked.min() > 0 else np.inf

    d_s = np.zeros(s.size)
    d_s[batch.rows] = -batch.weight * batch.sign * np.where(right, decay * share, share)
    back = (a @ d_s.reshape(n, -1)).ravel()  # A is symmetric
    g = hidden.T @ back
    g_w1 = ((batch.ax * back[:, None]).T @ active) * dw
    return loss, g_w1, np.column_stack([-g, g])


def loss_and_gradients(
    params: GcnParams,
    adj: NormalizedAdjacency,
    labeled_examples: Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]],
) -> tuple[float, GcnParams]:
    """The loss ``train`` minimizes and its exact gradients w.r.t. both weight matrices.

    ``labeled_examples`` are ``train``'s (features, labels, mask) triples; the
    loss is the mean over examples of each mask's mean cross-entropy.
    """
    batch = _stack_examples(adj, labeled_examples)
    if batch.ax.shape[1] != params.w1.shape[0]:
        raise ValueError(f"features must have {params.w1.shape[0]} columns")
    loss, g_w1, g_w2 = _batch_loss_and_gradients(params, adj.matrix, batch)
    return loss, GcnParams(g_w1, g_w2)


def train(
    params_init_seed: int,
    adj: NormalizedAdjacency,
    labeled_examples: Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]],
    hyper: TrainConfig = TrainConfig(),
) -> GcnParams:
    """Full-batch gradient descent on the loss of ``loss_and_gradients``.

    ``labeled_examples`` is a list of (features, labels, mask) triples that
    all share ``adj``. Deterministic given the init seed.
    """
    batch = _stack_examples(adj, labeled_examples)
    params = init_params(params_init_seed, batch.ax.shape[1], hyper.hidden_dim)
    for epoch in range(hyper.epochs):
        loss, g_w1, g_w2 = _batch_loss_and_gradients(params, adj.matrix, batch)
        if not np.isfinite(loss):
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
