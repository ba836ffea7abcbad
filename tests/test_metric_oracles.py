"""The slice metrics and rank statistics against their loop references.

``EvalSlice`` counts its confusion matrix once and ``stats.tie_runs`` is
the one grouping of tied values; ``metric_oracles`` recounts each metric
and walks each run of ties element by element. The tests require the
same bits, or the same error type, on every slice and vector.
``rolling_mean_std`` reduces every full window in one call, and
``harness.row_means`` every row with the same count of defined values;
both are held to the same bits as reducing one window or row at a time.
"""

import numpy as np
import pytest
from metric_oracles import (
    ORACLE_METRICS,
    oracle_average_ranks,
    oracle_rolling_mean_std,
    oracle_row_means,
    oracle_tie_correction,
)

from galstream import (
    PERFORMANCE_METRICS,
    EvalSlice,
    compute_metric,
    rolling_mean_std,
)
from galstream.exceptions import UndefinedMetricError
from galstream.harness import row_means
from galstream.metrics import THRESHOLD
from galstream.stats import _tie_correction, average_ranks, tie_runs

SCORE_KINDS = ("continuous", "coarse", "all_tied", "at_threshold")
LABEL_KINDS = ("mixed", "negatives", "positives")


def _scores(rng, kind, n):
    if kind == "continuous":
        return rng.random(n)
    if kind == "coarse":  # a handful of distinct values, so most scores tie
        return rng.integers(0, 5, size=n) / 4.0
    if kind == "all_tied":
        return np.full(n, rng.choice([0.0, 0.3, THRESHOLD, 1.0]))
    # some scores exactly at the threshold, the rest on either side of it
    return rng.choice([THRESHOLD, np.nextafter(THRESHOLD, 0.0), rng.random()], size=n)


def _labels(rng, kind, n):
    if kind == "negatives":
        return np.zeros(n, dtype=int)
    if kind == "positives":
        return np.ones(n, dtype=int)
    return rng.integers(0, 2, size=n)


def _slices():
    rng = np.random.default_rng(909)
    for n in range(1, 41):
        for score_kind in SCORE_KINDS:
            for label_kind in LABEL_KINDS:
                for _ in range(4):
                    scores = _scores(rng, score_kind, n)
                    labels = _labels(rng, label_kind, n)
                    yield EvalSlice(labels, np.column_stack([1.0 - scores, scores]))


def _outcome(fn, *args):
    """The value's bytes, or the error's type."""
    try:
        return np.float64(fn(*args)).tobytes()
    except (UndefinedMetricError, ValueError) as exc:
        return type(exc)


def test_metrics_match_loop_reference():
    compared = 0
    for s in _slices():
        for name in PERFORMANCE_METRICS:
            want = _outcome(ORACLE_METRICS[name], s)
            assert _outcome(compute_metric, s, name) == want, (name, s)
            compared += 1
    assert compared == 40 * len(SCORE_KINDS) * len(LABEL_KINDS) * 4 * len(PERFORMANCE_METRICS)


def test_confusion_counts_partition_the_slice():
    for s in _slices():
        predicted = s.scores() >= THRESHOLD
        positive = s.true_labels == 1
        assert (s.tp, s.fp, s.fn, s.tn) == (
            int((predicted & positive).sum()),
            int((predicted & ~positive).sum()),
            int((~predicted & positive).sum()),
            int((~predicted & ~positive).sum()),
        )


def _tied_vectors():
    rng = np.random.default_rng(910)
    yield np.array([])
    yield np.array([0.0, -0.0, 0.0])
    for n in range(1, 61):
        for distinct in (1, 2, 3, n):
            yield rng.integers(0, distinct, size=n).astype(float)
        yield rng.random(n)
    for n in (100, 300):  # long enough that an unstable sort reorders tied values
        yield rng.integers(0, 4, size=n).astype(float)


def test_tie_runs_are_stable_order_and_run_bounds():
    for x in _tied_vectors():
        order, first, last = tie_runs(x)
        assert order.tolist() == sorted(range(x.size), key=x.__getitem__)
        ordered = x[order].tolist()
        runs = [i for i in range(x.size) if i == 0 or ordered[i] != ordered[i - 1]]
        assert first.tolist() == runs
        ends = runs[1:] + [x.size] if runs else []
        assert last.tolist() == [i - 1 for i in ends]


def test_ranks_and_tie_correction_match_loop_reference():
    for x in _tied_vectors():
        assert average_ranks(x).tobytes() == oracle_average_ranks(x).tobytes()
        if x.size > 1:
            assert (
                np.float64(_tie_correction(x)).tobytes()
                == np.float64(oracle_tie_correction(x)).tobytes()
            )


def test_rolling_mean_std_matches_loop_reference():
    rng = np.random.default_rng(1213)
    for _ in range(1000):
        size = int(rng.integers(1, 60))
        window = int(rng.integers(1, 40))
        values = rng.random(size)
        if rng.random() < 1 / 3:  # few distinct values, so windows hold ties
            values = values.round(2)
        means, stds = rolling_mean_std(values, window)
        want_means, want_stds = oracle_rolling_mean_std(values, window)
        assert means.tobytes() == want_means.tobytes(), (size, window)
        assert stds.tobytes() == want_stds.tobytes(), (size, window)


def _with_gaps(rng, values):
    """``values`` with NaN runs: leading, interior, whole rows, or none, row by row."""
    for row in values:
        kind = rng.integers(4)
        if kind == 0:
            row[: rng.integers(1, row.size + 1)] = np.nan
        elif kind == 1:
            row[rng.random(row.size) < rng.random()] = np.nan
        elif kind == 2:
            row[:] = np.nan
    return values


def test_row_means_match_loop_reference():
    rng = np.random.default_rng(1414)
    for _ in range(600):
        length = int(rng.integers(1, 61))  # pairwise summation blocks by 8
        values = _with_gaps(rng, rng.random((int(rng.integers(1, 25)), length)))
        if rng.random() < 1 / 3:  # few distinct values
            values = values.round(2)
        values *= 10.0 ** rng.integers(-3, 4)
        grid = values.reshape(1, *values.shape, 1)  # a grid whose rows are strided
        for rows in (values, np.asfortranarray(values), values[::-1, ::-1], grid[0, :, :, 0]):
            got = row_means(rows)
            want = np.array(oracle_row_means(rows))
            assert np.isnan(got).tolist() == np.isnan(rows).all(axis=1).tolist()
            assert got[~np.isnan(got)].tobytes() == want.tobytes(), length
        # a transposed slice: each column's mean over its defined rows
        got = row_means(grid[0, :, :, 0].T)
        want = np.array(oracle_row_means(values.T))
        assert got[~np.isnan(got)].tobytes() == want.tobytes(), length


def test_row_means_reduce_the_last_axis_of_any_grid():
    rng = np.random.default_rng(1415)
    grid = _with_gaps(rng, rng.random((60, 9))).reshape(3, 4, 5, 9)
    got = row_means(grid)
    assert got.shape == (3, 4, 5)
    flat = got.reshape(-1)
    want = np.array(oracle_row_means(grid.reshape(-1, 9)))
    assert flat[~np.isnan(flat)].tobytes() == want.tobytes()


def test_unknown_metric_rejected():
    s = EvalSlice(np.array([0, 1]), np.array([[0.6, 0.4], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="unknown metric"):
        compute_metric(s, "balanced_accuracy")
