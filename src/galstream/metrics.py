"""Classification metrics, the cumulative performance index, and rolling summaries.

An :class:`EvalSlice` holds one slice, or many slices of one size packed
as rows; every metric scores all rows in whole-array steps, and one slice
is scored as one row.

A day series is two plain arrays, its day indices and its values:
:func:`cpi` takes both and :func:`rolling_mean_std` takes the values.
:func:`cpi_rows` and :func:`rolling_mean_std_rows` do the same arithmetic
for many series at once, and the one-series functions call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import UndefinedMetricError
from .stats import average_ranks

EVAL_CATEGORIES = (
    "test_set_same_day",
    "unqueried_same_day",
    "unqueried_next_day",
    "train_next_day",
)

PERFORMANCE_METRICS = (
    "accuracy",
    "precision",
    "recall",
    "f1_micro",
    "f1_macro",
    "auc_roc",
    "auc_pr",
)

THRESHOLD = 0.5  # class-1 score at or above which a node is predicted positive


@dataclass(frozen=True)
class EvalSlice:
    """Ground truth and predicted class probabilities for one node category on one day,
    or for many slices of one size packed as rows.

    One slice holds ``n`` labels and an (n, 2) probability matrix; packed
    slices hold a (rows, n) label matrix and a (rows, n, 2) probability array.
    Each row's confusion matrix at ``THRESHOLD`` is counted once, at
    construction; class 1 is the positive class. A metric of one slice is a
    float, or raises :class:`UndefinedMetricError`. A metric of packed slices
    is an array of one value per row, NaN where undefined, and each value has
    the bits of its row scored as one slice: one slice is scored as one row.
    """

    true_labels: np.ndarray
    probabilities: np.ndarray
    # an int for one slice, an array of one int per row for packed slices
    tp: int | np.ndarray = field(init=False, compare=False)
    fp: int | np.ndarray = field(init=False, compare=False)
    fn: int | np.ndarray = field(init=False, compare=False)
    tn: int | np.ndarray = field(init=False, compare=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.true_labels, dtype=int)
        probs = np.asarray(self.probabilities, dtype=float)
        if labels.size == 0:
            raise UndefinedMetricError("empty evaluation slice")
        if labels.ndim not in (1, 2):
            raise ValueError("slice labels must be a vector, or a (rows, n) matrix when packed")
        if not ((labels == 0) | (labels == 1)).all():
            raise ValueError("slice labels must be 0 or 1 (missing excluded upstream)")
        if probs.shape != (*labels.shape, 2):
            raise ValueError("probabilities must be an (n, 2) matrix, or (rows, n, 2) when packed")
        labels.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "true_labels", labels)
        object.__setattr__(self, "probabilities", probs)
        predicted = probs[..., 1] >= THRESHOLD
        positive = labels == 1
        tp = np.count_nonzero(predicted & positive, axis=-1)
        fp = np.count_nonzero(predicted, axis=-1) - tp
        fn = np.count_nonzero(positive, axis=-1) - tp
        object.__setattr__(self, "tp", tp)
        object.__setattr__(self, "fp", fp)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "tn", labels.shape[-1] - tp - fp - fn)

    def scores(self) -> np.ndarray:
        """Predicted probability of class 1."""
        return self.probabilities[..., 1]


def _result(s: EvalSlice, values, undefined: str = ""):
    """A metric's ``values``, one per row of ``s`` and NaN where undefined, as its result:
    the array for packed slices; for one slice its float, or ``UndefinedMetricError``."""
    if s.true_labels.ndim > 1:
        return values
    if np.isnan(values):
        raise UndefinedMetricError(undefined)
    return float(values)


def _ratio(numerators, denominators, undefined: float = 0.0) -> np.ndarray:
    """Each numerator over its denominator, the one division a scalar ``/`` makes;
    ``undefined`` where a denominator is 0."""
    out = np.full(np.shape(denominators), undefined)
    return np.divide(numerators, denominators, out=out, where=denominators != 0)


def accuracy(s: EvalSlice) -> float | np.ndarray:
    return _result(s, (s.tp + s.tn) / s.true_labels.shape[-1])


def precision(s: EvalSlice) -> float | np.ndarray:
    """Precision of class 1; 0 when nothing is predicted positive."""
    return _result(s, _ratio(s.tp, s.tp + s.fp))


def recall(s: EvalSlice) -> float | np.ndarray:
    """Recall of class 1; 0 when there are no true positives to find."""
    return _result(s, _ratio(s.tp, s.tp + s.fn))


def f1_micro(s: EvalSlice) -> float | np.ndarray:
    """Micro-averaged F1; equals accuracy for single-label binary tasks."""
    return accuracy(s)  # micro precision == micro recall == (tp + tn) / n


def f1_macro(s: EvalSlice) -> float | np.ndarray:
    """Mean of the two classes' F1; a class absent from both truth and prediction scores 0."""
    errors = s.fp + s.fn  # a false positive of one class is a false negative of the other
    f1_negative, f1_positive = (_ratio(2.0 * hits, 2 * hits + errors) for hits in (s.tn, s.tp))
    return _result(s, 0.5 * (f1_negative + f1_positive))


def auc_roc(s: EvalSlice) -> float | np.ndarray:
    """Mann-Whitney AUC with average ranks for tied scores; undefined for a single-class slice."""
    n_pos = s.tp + s.fn
    n_neg = s.fp + s.tn
    ranks = average_ranks(s.scores())
    # a sum of half-integers, exact in any order
    pos_rank_sum = np.where(s.true_labels == 1, ranks, 0.0).sum(axis=-1)
    auc = _ratio(pos_rank_sum - n_pos * (n_pos + 1) / 2.0, n_pos * n_neg, np.nan)
    return _result(s, auc, "AUC-ROC is undefined for a single-class slice")


def auc_pr(s: EvalSlice) -> float | np.ndarray:
    """Area under the precision-recall curve by the step-wise sum; undefined without positives.

    One (precision, recall) point per distinct score threshold, descending;
    area adds precision times the recall increment at each step, in that
    order (``np.sum`` would add pairwise). A row's steps sit at the last
    sorted position of each of its tie runs and +0.0 at the others, which
    leaves every partial sum as it is, since no step is negative.
    """
    n_pos = s.tp + s.fn
    pos = np.expand_dims(np.maximum(n_pos, 1), -1)  # a row with no positive is undefined
    order = np.argsort(-s.scores(), axis=-1, kind="stable")
    ordered = np.take_along_axis(s.scores(), order, axis=-1)
    hits = np.cumsum(np.take_along_axis(s.true_labels, order, axis=-1), axis=-1)
    last = np.ones(hits.shape, dtype=bool)  # each tie run's last sorted position
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=last[..., :-1])
    # the hits at each run's end before it: hits never fall, so the largest so far
    before = np.zeros_like(hits)
    before[..., 1:] = np.maximum.accumulate(np.where(last, hits, 0), axis=-1)[..., :-1]
    gain = hits / pos - before / pos  # the recall increment
    steps = np.where(last, gain * (hits / np.arange(1, hits.shape[-1] + 1)), 0.0)
    area = np.where(n_pos > 0, np.add.accumulate(steps, axis=-1)[..., -1], np.nan)
    return _result(s, area, "AUC-PR is undefined without positives")


_METRICS = {
    "accuracy": accuracy,
    "precision": precision,
    "recall": recall,
    "f1_micro": f1_micro,
    "f1_macro": f1_macro,
    "auc_roc": auc_roc,
    "auc_pr": auc_pr,
}


def compute_metric(s: EvalSlice, name: str) -> float | np.ndarray:
    """Evaluate any supported metric by name: a float for one slice, or an array of one
    value per row, NaN where undefined, for packed slices (see :class:`EvalSlice`)."""
    if name not in _METRICS:
        raise ValueError(f"unknown metric {name!r}; expected one of {PERFORMANCE_METRICS}")
    return _METRICS[name](s)


# ---------------------------------------------------------------------------
# Day series
# ---------------------------------------------------------------------------


def cpi(days: np.ndarray, values: np.ndarray) -> float:
    """Length-normalized trapezoid integral of ``values`` on uniformly spaced ``days``.

    Averages the T-1 trapezoids so a constant series maps to itself and a
    perfect series maps to exactly 1.
    """
    if len(days) < 2:
        raise ValueError("CPI needs at least two timepoints")
    gaps = np.diff(days)
    if not (gaps == gaps[0]).all():
        raise ValueError("CPI needs uniformly spaced timepoints")
    return float(cpi_rows(np.asarray(days)[None], np.asarray(values, dtype=float)[None])[0])


def cpi_rows(days: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The :func:`cpi` of each row of two (series, timepoint) matrices, at least two
    timepoints wide; NaN where a row's days are not uniformly spaced.

    Every row's trapezoids are summed along the rows of one C-contiguous
    matrix, which sums them as one series' are summed on their own, so each
    CPI keeps its bits.
    """
    step = days[:, 1] - days[:, 0]
    uniform = (np.diff(days, axis=1) == step[:, None]).all(axis=1)
    trapezoids = values[:, :-1] + values[:, 1:]
    trapezoids /= 2.0
    area = trapezoids.sum(axis=1) * step
    out = np.full(len(values), np.nan)
    return np.divide(area, (values.shape[1] - 1) * step, out=out, where=uniform)


def rolling_mean_std(values: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Trailing-window mean and population std; the window grows from 1 at the start."""
    v = np.asarray(values, dtype=float)
    means, stds = rolling_mean_std_rows(v[None], np.array([v.size]), window)
    return means[0], stds[0]


def rolling_mean_std_rows(
    values: np.ndarray, lengths: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`rolling_mean_std` of each row's first ``lengths[r]`` values; NaN after them.

    Every window of one length, across all rows, is gathered as a row of one
    matrix and reduced along its rows, which gives the bits of reducing each
    window on its own.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    means, stds = np.full(values.shape, np.nan), np.full(values.shape, np.nan)
    row, end = np.nonzero(np.arange(values.shape[1]) < np.asarray(lengths)[:, None])
    width = np.minimum(end + 1, window)
    for w in np.unique(width).tolist():
        r, e = row[width == w], end[width == w]
        windows = values[r[:, None], e[:, None] + np.arange(1 - w, 1)]
        means[r, e], stds[r, e] = windows.mean(axis=1), windows.std(axis=1)
    return means, stds
