"""The slice metrics and rank statistics against their loop references.

``EvalSlice`` counts its confusion matrix once per row, the metrics score
every row of packed slices at once, ``stats.tie_runs`` groups tied values
and ``stats.average_ranks`` ranks every row of a matrix at once;
``metric_oracles`` recounts each metric and walks each run of ties element
by element, one slice at a time. The tests require the same bits, or the
same error type (NaN in a packed row), on every slice and vector.
``rolling_mean_std_rows`` reduces every window of one length in one
call, ``harness.row_means`` and ``harness.mean_std_rows`` every row with
the same count of defined values, and ``harness.compute_cpis`` takes the
CPIs of every series with the same count of defined days in one call;
each is held to the same bits as reducing one window, row or series at a
time.
"""

import numpy as np
import pytest
from metric_oracles import (
    ORACLE_METRICS,
    oracle_average_ranks,
    oracle_cells,
    oracle_compute_cpis,
    oracle_cpi,
    oracle_fmt,
    oracle_mean_std,
    oracle_rolling_mean_std,
    oracle_rolling_rows,
    oracle_row_means,
    oracle_tie_correction,
)

from galstream import (
    PERFORMANCE_METRICS,
    EvalSlice,
    ExperimentConfig,
    compute_metric,
    cpi,
    reports,
    rolling_mean_std,
)
from galstream.exceptions import UndefinedMetricError
from galstream.harness import DailyTable, compute_cpis, mean_std_rows, row_means
from galstream.metrics import THRESHOLD, rolling_mean_std_rows
from galstream.stats import _tie_correction, average_ranks, tie_runs

SCORE_KINDS = ("continuous", "coarse", "all_tied", "signed_zero", "at_threshold")
LABEL_KINDS = ("mixed", "negatives", "positives")


def _scores(rng, kind, n):
    if kind == "continuous":
        return rng.random(n)
    if kind == "coarse":  # a handful of distinct values, so most scores tie
        return rng.integers(0, 5, size=n) / 4.0
    if kind == "all_tied":
        return np.full(n, rng.choice([0.0, 0.3, THRESHOLD, 1.0]))
    if kind == "signed_zero":  # +0.0 and -0.0 compare equal, so they tie
        return rng.choice([0.0, -0.0, rng.random()], size=n)
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


def _packed_slices():
    """Packed slices of every size up to 40, one to 16 rows each. Each row draws its own
    score and label kind, so the rows of one matrix hold different counts of tie runs,
    and some hold one class."""
    rng = np.random.default_rng(912)
    for n in range(1, 41):
        for rows in (1, 3, 16):
            scores = np.array([_scores(rng, rng.choice(SCORE_KINDS), n) for _ in range(rows)])
            labels = np.array([_labels(rng, rng.choice(LABEL_KINDS), n) for _ in range(rows)])
            yield EvalSlice(labels, np.stack([1.0 - scores, scores], axis=-1))


def _value(fn, s):
    """``fn(s)``, NaN where it is undefined."""
    try:
        return fn(s)
    except UndefinedMetricError:
        return np.nan


def test_packed_rows_match_loop_reference_row_by_row():
    uneven = 0  # matrices whose rows hold different counts of tie runs
    for packed in _packed_slices():
        rows = [EvalSlice(*row) for row in zip(packed.true_labels, packed.probabilities)]
        for name in PERFORMANCE_METRICS:
            want = np.array([_value(ORACLE_METRICS[name], s) for s in rows])
            assert compute_metric(packed, name).tobytes() == want.tobytes(), (name, packed)
        uneven += len({np.unique(scores).size for scores in packed.scores()}) > 1
    assert uneven > 0


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
                np.float64(_tie_correction(*tie_runs(x)[1:])).tobytes()
                == np.float64(oracle_tie_correction(x)).tobytes()
            )


def test_ranks_of_each_row_match_loop_reference():
    vectors = list(_tied_vectors())
    for size in {x.size for x in vectors}:
        rows = np.array([x for x in vectors if x.size == size])
        want = np.array([oracle_average_ranks(x) for x in rows]).reshape(rows.shape)
        assert average_ranks(rows).tobytes() == want.tobytes()
        stacked = np.stack([rows, rows[::-1]])  # a leading axis, as the correlation sides have
        assert average_ranks(stacked).tobytes() == np.stack([want, want[::-1]]).tobytes()


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


def _stat_rows(stats):
    """``mean_std_rows``' three arrays as (mean, std, count) rows, None for an undefined
    mean or std."""
    return [
        (mean, std, count) if count else (None, None, 0)
        for mean, std, count in zip(*(column.tolist() for column in stats))
    ]


def test_mean_std_rows_match_group_at_a_time_reference():
    rng = np.random.default_rng(1416)
    for _ in range(400):
        length = int(rng.integers(1, 41))  # pairwise summation blocks by 8
        values = _with_gaps(rng, rng.random((int(rng.integers(1, 20)), length)))
        if rng.random() < 1 / 3:  # few distinct values
            values = values.round(2)
        values *= 10.0 ** rng.integers(-3, 4)
        for rows in (values, np.asfortranarray(values), values[::-1, ::-1]):
            got = _stat_rows(mean_std_rows(rows))
            want = [oracle_mean_std(row[~np.isnan(row)].tolist()) for row in rows]
            assert [list(map(oracle_fmt, e)) for e in got] == [
                list(map(oracle_fmt, e)) for e in want
            ], length
    assert _stat_rows(mean_std_rows(np.zeros((3, 0)))) == [(None, None, 0)] * 3


def _gapped_table(rng, days, bootstraps=5):
    """A two-strategy table whose series hold leading, interior and trailing NaN runs,
    one defined day, no defined day, or none undefined; every tenth unit failed."""
    config = ExperimentConfig(strategies=("no_al", "random"), bootstraps=bootstraps)
    failed = {("random", b) for b in range(0, bootstraps, 10)}
    table = DailyTable(config, days, failed)
    series = rng.random(table.series().shape)  # (group, bootstrap, day)
    if rng.random() < 1 / 3:  # few distinct values
        series = series.round(2)
    for row in series.reshape(-1, len(days)):
        kind = rng.integers(7)
        start, stop = sorted(rng.integers(0, len(days) + 1, size=2))
        if kind == 0:
            row[:stop] = np.nan
        elif kind == 1:
            row[start:] = np.nan
        elif kind == 2:
            row[start:stop] = np.nan
        elif kind == 3:
            row[np.arange(len(days)) != rng.integers(len(days))] = np.nan
        elif kind == 4:
            row[:] = np.nan
        elif kind == 5:
            row[rng.random(len(days)) < 0.3] = np.nan
    grid = series.reshape(2, *table.values.shape[3:], bootstraps, len(days))
    grid = np.moveaxis(grid, (3, 4), (1, 2))  # back to (strategy, bootstrap, day, category, metric)
    table.values[...] = np.where(table.exists, grid, np.nan)
    return table


# evenly spaced query days, and the query days of a files dataset that skips a day
DAY_SETS = (tuple(range(6, 29)), (2, 3, 4, 6, 7, 8, 9), (5, 6), (3,))


def _bits(groups):
    return {key: np.array(values, dtype=float).tobytes() for key, values in groups.items()}


def test_cpis_match_series_loop():
    rng = np.random.default_rng(1516)
    defined = dict.fromkeys(DAY_SETS, 0)
    for _ in range(12):
        for days in DAY_SETS:
            table = _gapped_table(rng, days)
            got, want = compute_cpis(table), oracle_compute_cpis(table)
            assert list(got) == list(want)
            assert _bits(got) == _bits(want), days
            defined[days] += sum(map(len, got.values()))
    assert all(defined[days] > 0 for days in DAY_SETS[:3]) and defined[DAY_SETS[3]] == 0


def test_cpi_matches_its_loop_reference():
    rng = np.random.default_rng(1517)
    for _ in range(400):
        size = int(rng.integers(1, 40))
        days = np.arange(size) * 2
        if rng.random() < 0.3:  # uneven gaps of one or two days
            days = np.cumsum(rng.integers(1, 3, size=size))
        values = rng.random(size)
        try:
            want = np.float64(oracle_cpi(days, values)).tobytes()
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                cpi(days, values)
            continue
        assert np.float64(cpi(days, values)).tobytes() == want


@pytest.mark.parametrize("window", [1, 2, 5, 23, 40])
def test_rolling_report_matches_window_loop(window):
    rng = np.random.default_rng(1618 + window)
    config = ExperimentConfig(rolling_window=window)
    for _ in range(4):
        for days in DAY_SETS:
            table = _gapped_table(rng, days)
            got = list(zip(*map(oracle_cells, reports._rolling_columns(config, table))))
            want = list(oracle_rolling_rows(table, window))
            assert [list(map(oracle_fmt, row)) for row in got] == [
                list(map(oracle_fmt, row)) for row in want
            ]


def test_rolling_rows_match_window_loop():
    rng = np.random.default_rng(1619)
    for _ in range(200):
        values = rng.random((int(rng.integers(1, 12)), int(rng.integers(1, 30))))
        lengths = rng.integers(0, values.shape[1] + 1, size=len(values))
        window = int(rng.integers(1, 35))
        means, stds = rolling_mean_std_rows(values, lengths, window)
        for row, length, mean, std in zip(values, lengths, means, stds):
            want_means, want_stds = oracle_rolling_mean_std(row[:length], window)
            assert mean[:length].tobytes() == want_means.tobytes()
            assert std[:length].tobytes() == want_stds.tobytes()
            assert np.isnan(mean[length:]).all() and np.isnan(std[length:]).all()


def test_unknown_metric_rejected():
    s = EvalSlice(np.array([0, 1]), np.array([[0.6, 0.4], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="unknown metric"):
        compute_metric(s, "balanced_accuracy")
