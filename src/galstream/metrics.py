"""Classification metrics, the cumulative performance index, and rolling summaries.

A day series is two plain arrays, its day indices and its values:
:func:`cpi` takes both and :func:`rolling_mean_std` takes the values.
:func:`cpi_rows` and :func:`rolling_mean_std_rows` do the same arithmetic
for many series at once, and the one-series functions call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import UndefinedMetricError
from .stats import average_ranks, tie_runs

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
    """Ground truth and predicted class probabilities for one node category on one day.

    The confusion matrix at ``THRESHOLD`` is counted once, at construction;
    class 1 is the positive class.
    """

    true_labels: np.ndarray
    probabilities: np.ndarray
    tp: int = field(init=False, compare=False)
    fp: int = field(init=False, compare=False)
    fn: int = field(init=False, compare=False)
    tn: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        labels = np.asarray(self.true_labels, dtype=int)
        probs = np.asarray(self.probabilities, dtype=float)
        if labels.size == 0:
            raise UndefinedMetricError("empty evaluation slice")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("slice labels must be 0 or 1 (missing excluded upstream)")
        if probs.shape != (labels.size, 2):
            raise ValueError("probabilities must be an (n, 2) matrix")
        labels.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "true_labels", labels)
        object.__setattr__(self, "probabilities", probs)
        predicted = probs[:, 1] >= THRESHOLD
        positive = labels == 1
        tp = int(np.count_nonzero(predicted & positive))
        fp = int(np.count_nonzero(predicted)) - tp
        fn = int(np.count_nonzero(positive)) - tp
        object.__setattr__(self, "tp", tp)
        object.__setattr__(self, "fp", fp)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "tn", labels.size - tp - fp - fn)

    def scores(self) -> np.ndarray:
        """Predicted probability of class 1."""
        return self.probabilities[:, 1]


def _f1(hits: int, errors: int) -> float:
    """F1 of one class from its true positives and the slice's errors; 0 when absent."""
    if 2 * hits + errors == 0:
        # class absent from both truth and prediction
        return 0.0
    return 2.0 * hits / (2 * hits + errors)


def accuracy(s: EvalSlice) -> float:
    return (s.tp + s.tn) / s.true_labels.size


def precision(s: EvalSlice) -> float:
    """Precision of class 1; 0 when nothing is predicted positive."""
    return s.tp / (s.tp + s.fp) if s.tp + s.fp else 0.0


def recall(s: EvalSlice) -> float:
    """Recall of class 1; 0 when there are no true positives to find."""
    return s.tp / (s.tp + s.fn) if s.tp + s.fn else 0.0


def f1_micro(s: EvalSlice) -> float:
    """Micro-averaged F1; equals accuracy for single-label binary tasks."""
    return accuracy(s)  # micro precision == micro recall == (tp + tn) / n


def f1_macro(s: EvalSlice) -> float:
    errors = s.fp + s.fn  # a false positive of one class is a false negative of the other
    return 0.5 * (_f1(s.tn, errors) + _f1(s.tp, errors))


def auc_roc(s: EvalSlice) -> float:
    """Mann-Whitney AUC with average ranks for tied scores."""
    n_pos = s.tp + s.fn
    n_neg = s.fp + s.tn
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC-ROC is undefined for a single-class slice")
    ranks = average_ranks(s.scores())
    pos_rank_sum = ranks[s.true_labels == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_pr(s: EvalSlice) -> float:
    """Area under the precision-recall curve by the step-wise sum.

    One (precision, recall) point per distinct score threshold, descending;
    area adds precision times the recall increment at each step.
    """
    n_pos = s.tp + s.fn
    if n_pos == 0:
        raise UndefinedMetricError("AUC-PR is undefined without positives")
    order, _, last = tie_runs(-s.scores())
    tp = np.cumsum(s.true_labels[order])[last]
    recalls = tp / n_pos
    steps = np.diff(recalls, prepend=0.0) * (tp / (last + 1))
    return float(np.add.accumulate(steps)[-1])  # np.sum would add pairwise


_METRICS = {
    "accuracy": accuracy,
    "precision": precision,
    "recall": recall,
    "f1_micro": f1_micro,
    "f1_macro": f1_macro,
    "auc_roc": auc_roc,
    "auc_pr": auc_pr,
}


def compute_metric(s: EvalSlice, name: str) -> float:
    """Evaluate any supported metric by name."""
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
