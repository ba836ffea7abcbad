"""Reference two-layer graph convolution classifier with hand-derived gradients.

Everything is dense float64 numpy. Training is full-batch gradient descent
over all labeled day-examples at once. They share one propagation matrix A,
so they are stacked node-major, as (node, example) rows, and one GEMM
propagates every example. With two classes the softmax is the logistic of
the logit difference, so each epoch sends a single column through A forward
and one back. ``train`` and ``loss_and_gradients`` run the same routine.

``train_stack`` trains several models of one example count in lockstep: each
epoch runs once over a stack of them, one batched product per step, and each
model keeps the bits it gets trained alone. ``train`` is its one-model case.
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
    ends = np.cumsum(sizes).tolist()
    picked = np.concatenate(
        [
            np.asarray(labels, dtype=int)[safe[start:end]]
            for (_, labels, _), start, end in zip(examples, [0] + ends, ends)
        ]
    )
    repeats = np.flatnonzero((node[1:] == node[:-1]) & (example[1:] == example[:-1])) + 1
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


class _Stack:
    """A stack of U members' batches of one shape, their weights and every buffer
    of ``_stack_loss_and_gradients``, allocated once per stack.

    Member u's arrays are the u-th (rows, ·) slices of (U, rows, ·) buffers, and
    each product is one batched ``np.matmul`` with A broadcast over the stack.
    Every slice goes through the same BLAS call, with the same shapes and
    strides, as the member's product alone, so each member keeps its bits. The
    labelled rows of all members are flat indices into one (U * rows) array,
    member after member. One member has no stack axis: its buffers are its own
    2-D arrays and its weights and batch are used as they are, so it pays
    nothing for the stacking.

    Every array with one entry per stacked (node, example) row is filled in
    place each epoch, so an epoch allocates only the per-labelled-row logistic
    temporaries.
    """

    def __init__(self, batches: list[_Batch], nodes: int, params: list[GcnParams]) -> None:
        rows, features = batches[0].ax.shape
        hidden_dim = params[0].w1.shape[1]
        self.batches, self.params = batches, params
        if len(batches) == 1:
            lead: tuple[int, ...] = ()
            (batch,), (p,) = batches, params
            self.w1, self.w2, self.ax = p.w1, p.w2, batch.ax
            self.rows, self.sign, weight = batch.rows, batch.sign, batch.weight
        else:
            lead = (len(batches),)
            self.w1 = np.stack([p.w1 for p in params])  # (U, features, hidden)
            self.w2 = np.stack([p.w2 for p in params])  # (U, hidden, 2)
            for p, p_w1, p_w2 in zip(params, self.w1, self.w2):
                p.w1, p.w2 = p_w1, p_w2  # a member's weights are its slices of the stack
            self.ax = np.stack([b.ax for b in batches])
            self.rows = np.concatenate([b.rows + i * rows for i, b in enumerate(batches)])
            self.sign = np.concatenate([b.sign for b in batches])
            weight = np.concatenate([b.weight for b in batches])
        self.scale = -weight * self.sign

        self.w2_pos, self.w2_neg = self.w2[..., 1], self.w2[..., 0]
        self.ax_t = np.ascontiguousarray(self.ax.swapaxes(-1, -2))  # (features, rows)
        self.hidden = np.empty(lead + (rows, hidden_dim))  # z1 = ax @ w1, then relu in place
        self.hidden_t = self.hidden.swapaxes(-1, -2)
        self.active = np.empty(lead + (rows, hidden_dim))  # 1.0 where z1 > 0, else 0.0
        self.dw = np.empty(lead + (1, hidden_dim))  # w2[:, 1] - w2[:, 0]
        self.dw_flat, self.dw_col = self.dw[..., 0, :], self.dw.reshape(lead + (hidden_dim, 1))
        # hidden @ dw, A @ col, d loss / d s, A @ d_s
        self.col, s, d_s, self.back = np.empty((4,) + lead + (rows, 1))
        d_s[...] = 0.0  # unlabelled rows stay 0
        self.back_row = self.back.reshape(lead + (1, rows))
        self.s, self.d_s = s.reshape(-1), d_s.reshape(-1)  # flat, for the labelled rows
        self.ax_back_t = np.empty(lead + (features, rows))  # (ax * back[:, None]).T
        self.g_w1 = np.empty(lead + (features, hidden_dim))
        g_w2_t = np.empty(lead + (2, hidden_dim))  # [-g, g], each column contiguous
        self.g_w2 = g_w2_t.swapaxes(-1, -2)
        self.g_w2_pos, self.g_w2_neg = g_w2_t[..., 1, :], g_w2_t[..., 0, :]
        self.g_w2_col = g_w2_t[..., 1, :, None]
        # node-major (nodes, examples) views for the two products with A
        shape = lead + (nodes, -1)
        self.col_nodes, self.s_nodes = self.col.reshape(shape), s.reshape(shape)
        self.d_s_nodes, self.back_nodes = d_s.reshape(shape), self.back.reshape(shape)

    def survivors(self, alive: np.ndarray, nodes: int) -> "_Stack":
        """A new stack of the members ``alive`` marks, carrying on from their weights."""
        keep = np.flatnonzero(alive).tolist()
        return _Stack([self.batches[i] for i in keep], nodes, [self.params[i] for i in keep])


def _stack_loss_and_gradients(a: np.ndarray, st: _Stack) -> np.ndarray:
    """True-class probabilities of every member's labelled rows; the exact loss
    gradients land in ``st.g_w1`` and ``st.g_w2``.

    A member's loss is the weighted cross-entropy ``-(log(picked) * weight).sum()``
    over its rows; it is finite exactly when their ``picked.min() > 0``, since
    every probability lies in [0, 1] and the weights sum to 1. With two classes
    the softmax of a row is the logistic of its logit difference
    s = A relu(A x w1) dw, where dw = w2[:, 1] - w2[:, 0]. So one column goes
    through A forward and one back, and the gradient of w2 is [-g, g].
    """
    np.subtract(st.w2_pos, st.w2_neg, out=st.dw_flat)
    np.matmul(st.ax, st.w1, out=st.hidden)
    np.greater(st.hidden, 0.0, out=st.active)
    np.maximum(st.hidden, 0.0, out=st.hidden)
    np.matmul(st.hidden, st.dw_col, out=st.col)
    np.matmul(a, st.col_nodes, out=st.s_nodes)

    margin = st.s[st.rows] * st.sign  # true-class logit minus the other
    decay = np.exp(-np.abs(margin))  # never overflows
    share = 1.0 / (1.0 + decay)
    right = margin >= 0
    wrong_share = decay * share
    picked = np.where(right, share, wrong_share)

    st.d_s[st.rows] = st.scale * np.where(right, wrong_share, share)
    np.matmul(a, st.d_s_nodes, out=st.back_nodes)  # A is symmetric
    np.matmul(st.hidden_t, st.back, out=st.g_w2_col)
    np.negative(st.g_w2_pos, out=st.g_w2_neg)
    np.multiply(st.ax_t, st.back_row, out=st.ax_back_t)
    np.matmul(st.ax_back_t, st.active, out=st.g_w1)
    st.g_w1 *= st.dw
    return picked


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
    st = _Stack([batch], adj.node_count, [GcnParams(params.w1, params.w2)])
    picked = _stack_loss_and_gradients(adj.matrix, st)
    loss = float(-(np.log(picked) * batch.weight).sum()) if picked.min() > 0 else np.inf
    return loss, GcnParams(st.g_w1.copy(), st.g_w2.copy())


def train_stack(
    adj: NormalizedAdjacency,
    members: Sequence[tuple[int, Iterable[tuple[np.ndarray, np.ndarray, Sequence[int]]]]],
    hyper: TrainConfig = TrainConfig(),
) -> list[GcnParams | ValueError | TrainingDivergedError]:
    """Train each (init seed, labelled examples) member as ``train`` would, in lockstep.

    The members run each epoch as one :class:`_Stack`, and each one's weights
    keep the bits ``train`` gives it alone. Each entry of the result is the
    member's trained parameters, or the error ``train`` raises for it alone: a
    ValueError for malformed examples, or the ``TrainingDivergedError`` of the
    epoch its own loss turned infinite, at which it leaves the stack and the
    others run that epoch again without it. Members whose examples differ in
    count or feature width are a ValueError.
    """
    out: list = [None] * len(members)
    batches, index = [], []
    for i, (_, examples) in enumerate(members):
        try:
            batches.append(_stack_examples(adj, examples))
            index.append(i)
        except ValueError as exc:
            out[i] = exc
    if not batches:
        return out
    if len({b.ax.shape for b in batches}) > 1:
        raise ValueError("a stack's members must have the same example count and features")
    features = batches[0].ax.shape[1]
    params = [init_params(members[i][0], features, hyper.hidden_dim) for i in index]
    st = _Stack(batches, adj.node_count, params)
    epoch = 0
    while epoch < hyper.epochs:
        picked = _stack_loss_and_gradients(adj.matrix, st)
        if not picked.min() > 0:  # some member's loss is infinite: find whose
            starts = np.cumsum([0] + [b.rows.size for b in st.batches[:-1]])
            alive = np.minimum.reduceat(picked, starts) > 0
            for i in np.flatnonzero(~alive):
                out[index[i]] = TrainingDivergedError(epoch)
            index = [i for i, a in zip(index, alive) if a]
            if not index:
                return out
            st = st.survivors(alive, adj.node_count)
            continue
        st.g_w1 *= hyper.learning_rate
        st.g_w2 *= hyper.learning_rate
        st.w1 -= st.g_w1
        st.w2 -= st.g_w2
        epoch += 1
    for i, p in zip(index, st.params):
        out[i] = p
    return out


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
    This is :func:`train_stack` with one member.
    """
    (params,) = train_stack(adj, [(params_init_seed, labeled_examples)], hyper)
    if isinstance(params, Exception):
        raise params
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
