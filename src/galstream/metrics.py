"""Classification metrics, the cumulative performance index, and rolling summaries."""

from __future__ import annotations

from dataclasses import dataclass

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
    """Ground truth and predicted class probabilities for one node category on one day."""

    category: str
    day: int
    true_labels: np.ndarray
    probabilities: np.ndarray

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

    def scores(self) -> np.ndarray:
        """Predicted probability of class 1."""
        return self.probabilities[:, 1]


def _predictions(s: EvalSlice) -> np.ndarray:
    return (s.scores() >= THRESHOLD).astype(int)


def _binary_f1(truth: np.ndarray, pred: np.ndarray, positive: int) -> float:
    tp = int(((pred == positive) & (truth == positive)).sum())
    fp = int(((pred == positive) & (truth != positive)).sum())
    fn = int(((pred != positive) & (truth == positive)).sum())
    if 2 * tp + fp + fn == 0:
        # class absent from both truth and prediction
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def accuracy(s: EvalSlice) -> float:
    pred = _predictions(s)
    return float((pred == s.true_labels).mean())


def precision(s: EvalSlice) -> float:
    """Precision of class 1; 0 when nothing is predicted positive."""
    pred = _predictions(s)
    predicted_pos = int((pred == 1).sum())
    if predicted_pos == 0:
        return 0.0
    tp = int(((pred == 1) & (s.true_labels == 1)).sum())
    return tp / predicted_pos


def recall(s: EvalSlice) -> float:
    """Recall of class 1; 0 when there are no true positives to find."""
    pred = _predictions(s)
    actual_pos = int((s.true_labels == 1).sum())
    if actual_pos == 0:
        return 0.0
    tp = int(((pred == 1) & (s.true_labels == 1)).sum())
    return tp / actual_pos


def f1_micro(s: EvalSlice) -> float:
    """Micro-averaged F1; equals accuracy for single-label binary tasks."""
    pred = _predictions(s)
    tp = int((pred == s.true_labels).sum())  # per-class TP summed over both classes
    n = s.true_labels.size
    # micro precision == micro recall == tp / n
    return tp / n


def f1_macro(s: EvalSlice) -> float:
    pred = _predictions(s)
    return 0.5 * (
        _binary_f1(s.true_labels, pred, 0) + _binary_f1(s.true_labels, pred, 1)
    )


def auc_roc(s: EvalSlice) -> float:
    """Mann-Whitney AUC with average ranks for tied scores."""
    truth = s.true_labels
    n_pos = int((truth == 1).sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC-ROC is undefined for a single-class slice")
    ranks = average_ranks(s.scores())
    pos_rank_sum = ranks[truth == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def auc_pr(s: EvalSlice) -> float:
    """Area under the precision-recall curve by the step-wise sum.

    One (precision, recall) point per distinct score threshold, descending;
    area adds precision times the recall increment at each step.
    """
    truth = s.true_labels
    scores = s.scores()
    n_pos = int((truth == 1).sum())
    if n_pos == 0:
        raise UndefinedMetricError("AUC-PR is undefined without positives")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_truth = truth[order]
    area = 0.0
    tp = 0
    taken = 0
    prev_recall = 0.0
    i = 0
    n = truth.size
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        tp += int(sorted_truth[i : j + 1].sum())
        taken += j - i + 1
        recall_here = tp / n_pos
        precision_here = tp / taken
        area += (recall_here - prev_recall) * precision_here
        prev_recall = recall_here
        i = j + 1
    return area


_THRESHOLD_METRICS = {
    "accuracy": accuracy,
    "precision": precision,
    "recall": recall,
    "f1_micro": f1_micro,
    "f1_macro": f1_macro,
}


def compute_metric(s: EvalSlice, name: str) -> float:
    """Evaluate any supported metric by name."""
    if name in _THRESHOLD_METRICS:
        return _THRESHOLD_METRICS[name](s)
    if name == "auc_roc":
        return auc_roc(s)
    if name == "auc_pr":
        return auc_pr(s)
    raise ValueError(f"unknown metric {name!r}; expected one of {PERFORMANCE_METRICS}")


# ---------------------------------------------------------------------------
# Day series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PerformanceSeries:
    """A per-day series of values in [0, 1] for one metric."""

    metric: str
    days: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        days = tuple(int(d) for d in self.days)
        values = np.asarray(self.values, dtype=float)
        if len(days) != values.size:
            raise ValueError("days and values must have equal length")
        if any(b <= a for a, b in zip(days, days[1:])):
            raise ValueError("days must be strictly increasing")
        if values.size and (
            not np.isfinite(values).all() or values.min() < 0 or values.max() > 1
        ):
            raise ValueError("values must be finite and lie in [0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "values", values)


def cpi(series: PerformanceSeries) -> float:
    """Length-normalized trapezoid integral of a uniformly spaced day series.

    Averages the T-1 trapezoids so a constant series maps to itself and a
    perfect series maps to exactly 1.
    """
    if len(series.days) < 2:
        raise ValueError("CPI needs at least two timepoints")
    gaps = np.diff(series.days)
    if not (gaps == gaps[0]).all():
        raise ValueError("CPI needs uniformly spaced timepoints")
    v = series.values
    area = float(((v[:-1] + v[1:]) / 2.0).sum()) * gaps[0]
    return area / ((len(v) - 1) * gaps[0])


def rolling_mean_std(
    series: PerformanceSeries, window: int
) -> tuple[PerformanceSeries, PerformanceSeries]:
    """Trailing-window mean and population std; the window grows from 1 at the start."""
    if window < 1:
        raise ValueError("window must be at least 1")
    v = series.values
    means = np.empty(v.size)
    stds = np.empty(v.size)
    for i in range(v.size):
        chunk = v[max(0, i - window + 1) : i + 1]
        means[i] = chunk.mean()
        stds[i] = chunk.std()
    return (
        PerformanceSeries(f"{series.metric}_rolling_mean", series.days, means),
        PerformanceSeries(f"{series.metric}_rolling_std", series.days, stds),
    )
