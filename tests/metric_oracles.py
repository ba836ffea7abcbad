"""Loop references for the slice metrics and the rank statistics.

These are the recount-per-metric versions of the threshold metrics, the
element-at-a-time tie walks of average ranks, the Kruskal-Wallis tie
correction, AUC-ROC and AUC-PR, the window-at-a-time rolling mean and
std, the row-at-a-time mean over defined values, the group-at-a-time
mean and std, the series-at-a-time CPI and rolling report, and the
cell-at-a-time CSV writer. The library counts each slice's confusion
matrix once, groups tied values in one place, reduces every rolling
window of one length, every row with the same count of defined values
(for its mean, or its mean and std) and every CPI of series with the same
count of defined days in one call, and formats a report's cells a column
at a time; the tests require the same bits, not close values, because
both keep every value's arithmetic and summation order. Slow on purpose.
"""

import csv

import numpy as np

from galstream.exceptions import UndefinedMetricError
from galstream.metrics import THRESHOLD


def oracle_average_ranks(values):
    """Ranks 1..n with tied values sharing their average rank."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def oracle_tie_correction(pooled):
    n = pooled.size
    _, counts = np.unique(pooled, return_counts=True)
    return 1.0 - float((counts**3 - counts).sum()) / (n**3 - n)


def _predictions(s):
    return (s.scores() >= THRESHOLD).astype(int)


def _binary_f1(truth, pred, positive):
    tp = int(((pred == positive) & (truth == positive)).sum())
    fp = int(((pred == positive) & (truth != positive)).sum())
    fn = int(((pred != positive) & (truth == positive)).sum())
    if 2 * tp + fp + fn == 0:
        return 0.0
    return 2.0 * tp / (2 * tp + fp + fn)


def oracle_accuracy(s):
    pred = _predictions(s)
    return float((pred == s.true_labels).mean())


def oracle_precision(s):
    pred = _predictions(s)
    predicted_pos = int((pred == 1).sum())
    if predicted_pos == 0:
        return 0.0
    tp = int(((pred == 1) & (s.true_labels == 1)).sum())
    return tp / predicted_pos


def oracle_recall(s):
    pred = _predictions(s)
    actual_pos = int((s.true_labels == 1).sum())
    if actual_pos == 0:
        return 0.0
    tp = int(((pred == 1) & (s.true_labels == 1)).sum())
    return tp / actual_pos


def oracle_f1_micro(s):
    pred = _predictions(s)
    tp = int((pred == s.true_labels).sum())
    return tp / s.true_labels.size


def oracle_f1_macro(s):
    pred = _predictions(s)
    return 0.5 * (_binary_f1(s.true_labels, pred, 0) + _binary_f1(s.true_labels, pred, 1))


def oracle_auc_roc(s):
    truth = s.true_labels
    n_pos = int((truth == 1).sum())
    n_neg = truth.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC-ROC is undefined for a single-class slice")
    ranks = oracle_average_ranks(s.scores())
    pos_rank_sum = ranks[truth == 1].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def oracle_auc_pr(s):
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


ORACLE_METRICS = {
    "accuracy": oracle_accuracy,
    "precision": oracle_precision,
    "recall": oracle_recall,
    "f1_micro": oracle_f1_micro,
    "f1_macro": oracle_f1_macro,
    "auc_roc": oracle_auc_roc,
    "auc_pr": oracle_auc_pr,
}


def oracle_rolling_mean_std(values, window):
    """Trailing-window mean and population std, one window at a time."""
    v = np.asarray(values, dtype=float)
    means = np.empty(v.size)
    stds = np.empty(v.size)
    for i in range(v.size):
        chunk = v[max(0, i - window + 1) : i + 1]
        means[i] = chunk.mean()
        stds[i] = chunk.std()
    return means, stds


def oracle_row_means(values):
    """The mean of each row over its defined (non-NaN) values; rows with none drop out."""
    defined = (row[~np.isnan(row)] for row in values)
    return [float(np.mean(row)) for row in defined if row.size]


def oracle_mean_std(values):
    """Mean, population std and count of one group's values; undefined for no values."""
    if not values:
        return None, None, 0
    arr = np.array(values)
    return float(arr.mean()), float(arr.std()), arr.size


def oracle_cpi(days, values):
    """The trapezoid CPI of one series, raising where it is undefined."""
    if len(days) < 2:
        raise ValueError("CPI needs at least two timepoints")
    gaps = np.diff(days)
    if not (gaps == gaps[0]).all():
        raise ValueError("CPI needs uniformly spaced timepoints")
    v = np.asarray(values, dtype=float)
    area = float(((v[:-1] + v[1:]) / 2.0).sum()) * gaps[0]
    return area / ((len(v) - 1) * gaps[0])


def oracle_compute_cpis(table):
    """Each group's defined CPIs in bootstrap order, one series at a time."""
    out = {}
    for key, values in zip(table.keys, table.series()):
        out[key] = []
        for series in values:
            defined = ~np.isnan(series)
            if np.count_nonzero(defined) < 2:
                continue
            try:
                out[key].append(oracle_cpi(table.days[defined], series[defined]))
            except ValueError:
                pass
    return out


def oracle_rolling_rows(table, window):
    """The rows of ``rolling.csv``, one group and one window at a time."""
    for key, per_bootstrap in zip(table.keys, table.series()):
        day_means = np.array([
            np.mean(day[~np.isnan(day)]) if (~np.isnan(day)).any() else np.nan
            for day in per_bootstrap.T
        ])
        defined = ~np.isnan(day_means)
        means, stds = oracle_rolling_mean_std(day_means[defined], window)
        for day, mean, std in zip(table.days[defined].tolist(), means.tolist(), stds.tolist()):
            yield (*key, day, mean, std)


def oracle_fmt(value):
    """One CSV cell: NA for None, the ``repr`` of a float, ``str`` of anything else."""
    if value is None:
        return "NA"
    if isinstance(value, float):  # includes numpy float scalars
        return repr(float(value))
    return str(value)


def oracle_cells(column):
    """The cells of a report column: a (names, codes) pair's names by code, and an
    array's values, None for NaN."""
    if isinstance(column, tuple):
        names, codes = column
        return [names[i] for i in codes.tolist()]
    return [None if v != v else v for v in column.tolist()]


def oracle_write_csv(path, header, rows):
    """A report CSV written a row and a cell at a time by ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([oracle_fmt(v) for v in row])
