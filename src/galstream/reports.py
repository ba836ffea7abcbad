"""Report emission: every run produces a directory of CSVs plus a manifest.

``daily.csv`` and ``queries.csv`` are the primary outputs; everything else
is derived from them (plus the deterministic dataset) and can be recomputed
with :func:`recompute_reports`, which the CLI exposes as ``report``. Both
paths share the writers and the dense grid of one
:class:`~galstream.harness.DailyTable`, whose cells the manifest and the
dataset's query days fix. Reading ``daily.csv`` puts each row in its cell,
so recomputed files match the originals byte for byte whatever the row order.

Every report is written by :func:`~galstream.datasets._write_csv` from
columns: numeric arrays, NaN where undefined, or (names, codes) pairs, and
``daily.csv`` and ``queries.csv`` are read by its block reader,
:func:`~galstream.datasets._read_blocks`. Each per-log report computes
one (log, *keys) array over the logs in (strategy, bootstrap) order and
reduces each strategy's logs in one :func:`~galstream.harness.mean_std_rows`
call (see :func:`_over_units`).
"""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from itertools import chain, product
from pathlib import Path

import numpy as np

from .burden import (
    BURDEN_QUANTITIES,
    CORRELATION_METHODS,
    QueryLog,
    average_time_gap,
    centrality_burden_correlation,  # noqa: F401 - perfbench/spans.py traces this name here
    centrality_burden_correlations,
    coverage_ratio,
    mean_normalized_centrality,
    over_exertion,
    sampling_entropy,
    within_gap_percentage,
)
from .config import ExperimentConfig, config_from_dict, config_to_dict, read_manifest
from .datasets import (
    NA,
    Dataset,
    _check,
    _Codes,
    _error,
    _positions,
    _read_blocks,
    _repeats,
    _write_csv,
    make_split,
)
from .exceptions import ConfigError, DataFormatError
from .graphs import CENTRALITY_METRICS
from .harness import (
    DailyTable,
    RunResult,
    aggregate_records,
    compute_cpis,
    load_configured_dataset,
    mean_std_rows,
    query_days,
    row_means,
)
from .metrics import (
    EVAL_CATEGORIES,
    PERFORMANCE_METRICS,
    rolling_mean_std,  # noqa: F401 - bound only for perfbench/spans.py, which traces this name here
    rolling_mean_std_rows,
)
from .stats import anova_oneway, kruskal_wallis
from .strategies import STRATEGY_NAMES

REPORT_FILES = (
    "aggregate.csv",
    "daily.csv",
    "rolling.csv",
    "burden.csv",
    "tradeoff.csv",
    "centrality_heatmap.csv",
    "centrality_correlation.csv",
    "significance.csv",
    "queries.csv",
    "run_manifest.json",
)

_DAILY_HEADER = ["strategy", "bootstrap", "day", "category", "metric", "value"]
_QUERY_HEADER = ["strategy", "bootstrap", "day", "node"]

_METRIC_ORDER = PERFORMANCE_METRICS + tuple(f"cpi_{m}" for m in PERFORMANCE_METRICS)

_BURDEN_SIMPLE = (
    ("sampling_entropy", sampling_entropy),
    ("coverage_ratio", coverage_ratio),
    ("average_time_gap", average_time_gap),
)


def prepare_output_dir(path: str | Path) -> Path:
    """Create the output directory and fail fast if it is not writable."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK):
        raise PermissionError(f"output directory {out} is not writable")
    return out


# ---------------------------------------------------------------------------
# Individual report builders
# ---------------------------------------------------------------------------


def _named(names, flat) -> list:
    """The name columns of the cells ``flat`` of a grid whose axes ``names`` name, each
    a (names, codes) pair."""
    return list(zip(names, np.unravel_index(flat, tuple(map(len, names)))))


def _aggregate_columns(config, aggregate) -> list:
    """The rows of ``aggregate.csv`` as columns: each (strategy, category, metric) entry."""
    names = (config.strategies, EVAL_CATEGORIES, _METRIC_ORDER)
    entries = [aggregate.get(key, (np.nan, np.nan, 0)) for key in product(*names)]
    cells = np.array(entries).reshape(-1, 3)
    rows = np.flatnonzero(cells[:, 2])
    return [*_named(names, rows), cells[rows, 0], cells[rows, 1], cells[rows, 2].astype(np.int64)]


def _rolling_columns(config, table: DailyTable) -> list:
    """The rows of ``rolling.csv`` as columns, the names coded: each group's rolling
    mean and std over its defined days."""
    # each day's mean over its group's bootstraps; each group's defined days first, in order
    per_day = row_means(np.swapaxes(table.series(), 1, 2))
    order = np.argsort(np.isnan(per_day), axis=1, kind="stable")
    lengths = np.count_nonzero(~np.isnan(per_day), axis=1)
    means, stds = rolling_mean_std_rows(
        np.take_along_axis(per_day, order, axis=1), lengths, config.rolling_window
    )
    group, i = np.nonzero(np.arange(per_day.shape[1]) < lengths[:, None])
    names = (table.strategies, EVAL_CATEGORIES, PERFORMANCE_METRICS)  # table.keys is their product
    return [*_named(names, group), table.days[order[group, i]], means[group, i], stds[group, i]]


def _units(config, query_logs) -> tuple[list[tuple[str, int]], list[QueryLog]]:
    """Each logged unit, in (strategy in config order, bootstrap) order, and its log."""
    units = sorted(query_logs, key=lambda k: (config.strategies.index(k[0]), k[1]))
    return units, [query_logs[key] for key in units]


def _defined(fn, *args) -> float:
    """A burden measure ``fn(*args)`` of one log; NaN where it raises ``ValueError``, as
    on a log it is undefined for."""
    try:
        return fn(*args)
    except ValueError:
        return np.nan


def _over_units(config, units, per_log: np.ndarray) -> list[np.ndarray]:
    """Mean, std and count over each strategy's logs of a (log, *keys) array whose logs
    ``units`` names: three (strategy, *keys) arrays, NaN, NaN and 0 where no log
    defines a value.

    Each (strategy, *keys) row holds its values in bootstrap order, NaN where a
    unit failed, so one :func:`~galstream.harness.mean_std_rows` call reduces
    every row, each as if alone.
    """
    grid = np.full((len(config.strategies), *per_log.shape[1:], config.bootstraps), np.nan)
    s = np.array([config.strategies.index(strategy) for strategy, _ in units], dtype=np.intp)
    grid[s, ..., np.array([b for _, b in units], dtype=np.intp)] = per_log
    return [x.reshape(grid.shape[:-1]) for x in mean_std_rows(grid.reshape(-1, config.bootstraps))]


def _burden_columns(config, units, logs) -> list:
    """The rows of ``burden.csv`` as columns: each per-log burden measure over each
    strategy's logs."""
    gapped = (("within_gap_pct", within_gap_percentage), ("over_exertion", over_exertion))
    measures = [(name, NA, fn, ()) for name, fn in _BURDEN_SIMPLE] + [
        (name, str(threshold), fn, (threshold,))
        for threshold in config.gap_thresholds
        for name, fn in gapped
    ]
    per_log = [[_defined(fn, log, *args) for *_, fn, args in measures] for log in logs]
    per_log = np.array(per_log, dtype=float).reshape(len(logs), len(measures))
    means, stds, counts = (x.ravel() for x in _over_units(config, units, per_log))
    strategy, (_, key) = _named((config.strategies, measures), np.arange(means.size))
    metrics, thresholds, _, _ = zip(*measures)
    return [strategy, (metrics, key), (thresholds, key), means, stds, counts]


def _tradeoff_columns(config, aggregate, units, logs) -> list:
    """The rows of ``tradeoff.csv`` as columns: each strategy's mean CPI and mean
    over-exertion at the reference gap."""
    cpi_key = f"cpi_{config.tradeoff_metric}"
    mean_cpi = [
        aggregate.get((strategy, "test_set_same_day", cpi_key), (np.nan,))[0]
        for strategy in config.strategies
    ]
    exertion = [_defined(over_exertion, log, config.reference_gap) for log in logs]
    means, _, _ = _over_units(config, units, np.array(exertion, dtype=float))
    return [(config.strategies, np.arange(len(config.strategies))), np.array(mean_cpi), means]


def _heatmap_columns(config, units, logs, dataset) -> list:
    """The rows of ``centrality_heatmap.csv`` as columns: each strategy's mean over its
    logs of each log's mean normalized centrality."""
    named = {str(i): log for i, log in enumerate(logs)}
    tables = mean_normalized_centrality(named, dataset.graph).values()
    # None, a centrality undefined on the graph, becomes NaN
    per_log = np.array([[t[m] for m in CENTRALITY_METRICS] for t in tables], dtype=float)
    means, _, _ = _over_units(config, units, per_log.reshape(len(logs), len(CENTRALITY_METRICS)))
    return [(config.strategies, np.arange(len(config.strategies))), *means.T]


def _correlation_columns(config, units, logs, dataset) -> list:
    """The rows of ``centrality_correlation.csv`` as columns: each (centrality, burden
    quantity, method) correlation over each strategy's logs."""
    per_log = centrality_burden_correlations(logs, dataset.graph)
    means, stds, counts = (x.ravel() for x in _over_units(config, units, per_log))
    names = (config.strategies, CENTRALITY_METRICS, BURDEN_QUANTITIES, CORRELATION_METHODS)
    return [*_named(names, np.arange(means.size)), means, stds, counts]


def _significance_observations(config, table: DailyTable, cpis):
    """Per (category, metric): strategy -> its observations."""
    obs: dict[tuple[str, str], dict[str, np.ndarray | list[float]]] = {}
    series = table.series()
    if config.significance_unit == "bootstrap_mean":
        series = row_means(series)
    for (strategy, category, metric), values in zip(table.keys, series):
        values = values[~np.isnan(values)]  # in bootstrap (then day) order
        if values.size:
            obs.setdefault((category, metric), {})[strategy] = values
        defined = cpis[(strategy, category, metric)]
        if defined:
            obs.setdefault((category, f"cpi_{metric}"), {})[strategy] = defined
    return obs


def _tested(test, groups) -> tuple[float, float]:
    """A significance test's statistic and p-value; NaN and NaN where it raises ``ValueError``."""
    try:
        return test(groups)
    except ValueError:
        return np.nan, np.nan


def _significance_columns(config, table: DailyTable, cpis) -> list:
    """The rows of ``significance.csv`` as columns: the tests across strategies of each
    (category, metric) that at least two strategies observe."""
    obs = _significance_observations(config, table, cpis)
    names = (EVAL_CATEGORIES, _METRIC_ORDER)
    cells, stats = [], []
    for cell, key in enumerate(product(*names)):
        groups = obs.get(key, {})
        if len(groups) >= 2:
            named = {s: groups[s] for s in config.strategies if s in groups}
            cells.append(cell)
            stats.append((*_tested(anova_oneway, named), *_tested(kruskal_wallis, named)))
    stats = np.array(stats, dtype=float).reshape(len(cells), 4)
    return [*_named(names, np.array(cells, dtype=np.intp)), *stats.T]


def _query_columns(config, query_logs) -> list:
    """The rows of ``queries.csv`` as columns, the strategy coded by unit: each unit's
    queries, by (day, node)."""
    units, logs = _units(config, query_logs)
    counts = [log.total_queries for log in logs]
    days, nodes = [np.zeros(0, np.int64)], [np.zeros(0, np.intp)]
    for log, count in zip(logs, counts):
        unit_nodes = np.repeat(log.sampled, log.counts)
        unit_days = np.fromiter(chain.from_iterable(log.days_by_node.values()), np.int64, count)
        order = np.lexsort((unit_nodes, unit_days))
        days.append(unit_days[order])
        nodes.append(unit_nodes[order])
    return [
        ([s for s, _ in units], np.repeat(np.arange(len(units)), counts)),
        np.repeat(np.array([b for _, b in units], dtype=np.int64), counts),
        np.concatenate(days),
        np.concatenate(nodes),
    ]


# ---------------------------------------------------------------------------
# Emission and recomputation
# ---------------------------------------------------------------------------


def emit_reports(
    result: RunResult, config: ExperimentConfig, dataset: Dataset | None = None
) -> dict[str, Path]:
    """Write every report CSV plus the manifest under ``config.output_dir``."""
    out = prepare_output_dir(config.output_dir)
    if dataset is None:
        dataset = load_configured_dataset(config)

    paths = {name: out / name for name in REPORT_FILES}
    _write_csv(paths["daily.csv"], _DAILY_HEADER, result.records.columns())
    _write_csv(paths["queries.csv"], _QUERY_HEADER, _query_columns(config, result.query_logs))
    _write_derived(paths, result, config, dataset)

    manifest = {
        "config": config_to_dict(config),
        "created_at": datetime.now(timezone.utc).isoformat(),
        "failures": [list(f) for f in result.failures],
    }
    with open(paths["run_manifest.json"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def _write_derived(paths, result: RunResult, config, dataset) -> None:
    """Every derived report of ``result``."""
    units, logs = _units(config, result.query_logs)
    for name, header, columns in (
        ("aggregate.csv", ["strategy", "category", "metric", "mean", "std", "n"],
         _aggregate_columns(config, result.aggregate)),
        ("rolling.csv", ["strategy", "category", "metric", "day", "rolling_mean", "rolling_std"],
         _rolling_columns(config, result.records)),
        ("burden.csv", ["strategy", "metric", "threshold", "mean", "std", "n"],
         _burden_columns(config, units, logs)),
        ("tradeoff.csv", ["strategy", "mean_cpi", "mean_over_exertion"],
         _tradeoff_columns(config, result.aggregate, units, logs)),
        ("centrality_heatmap.csv", ["strategy", *CENTRALITY_METRICS],
         _heatmap_columns(config, units, logs, dataset)),
        ("centrality_correlation.csv",
         ["strategy", "centrality", "burden_quantity", "method", "mean", "std", "n"],
         _correlation_columns(config, units, logs, dataset)),
        ("significance.csv", ["category", "metric", "anova_f", "anova_p", "kw_h", "kw_p"],
         _significance_columns(config, result.records, result.cpis)),
    ):
        _write_csv(paths[name], header, columns)


def _value(text: str) -> float:
    """A ``daily.csv`` value: NaN for NA, and -1 for text that is not a number in [0, 1]."""
    try:
        v = np.nan if text == NA else float(text)
    except ValueError:
        return -1.0
    return v if text == NA or 0.0 <= v <= 1.0 else -1.0


def read_daily_records(
    path: str | Path,
    config: ExperimentConfig,
    dataset: Dataset,
    failed: set[tuple[str, int]] = frozenset(),
) -> DailyTable:
    """The rows of ``daily.csv``, each put in its cell of a :class:`~galstream.harness.DailyTable`.

    A row is rejected with its line if its bootstrap or day is not an
    integer; if it names a strategy, category or metric outside the
    vocabularies; if its (strategy, bootstrap) is not a unit of the run (a
    strategy the config does not run, a bootstrap out of range, or a pair
    listed in ``failed``); if its day is not a query day; if its unit scores
    no such category (no_al's ``train_next_day``); if its value is neither
    ``NA`` nor in [0, 1]; or if its cell was already written. The first bad
    line of the file is the one reported, with the first of these it fails.
    A file that leaves a cell empty is rejected, naming the first such cell.
    The file is read once (see :func:`_read_blocks`), and each check is one
    mask over a block's columns.
    """
    table = DailyTable(config, query_days(config, dataset), failed)
    written = np.zeros(table.values.shape, dtype=bool)
    codes = (
        # STRATEGY_NAMES.index rejects an unknown strategy; a known one not run is outside
        _positions([STRATEGY_NAMES.index(s) for s in table.strategies], STRATEGY_NAMES.index),
        _positions(range(table.values.shape[1]), int),
        _positions(table.days.tolist(), int),
        _positions(EVAL_CATEGORIES),
        _positions(PERFORMANCE_METRICS),
    )
    values = _Codes(_value)
    for line_numbers, *columns, value in _read_blocks(path, _DAILY_HEADER):
        strategy, bootstrap, day, category, metric = columns
        s, b, d, c, m = (code.array(column) for code, column in zip(codes, columns))
        v = values.array(value, float)
        cell = tuple(np.maximum(x, 0) for x in (s, b, d, c, m))
        flat = np.ravel_multi_index(cell, written.shape)
        unit = (s < 0) | (b < 0) | ~table.units[cell[:2]]
        _check(path, line_numbers, [
            (b == -2, lambda i: _error(int, bootstrap[i])),
            (d == -2, lambda i: _error(int, day[i])),
            (s == -2, lambda i: f"unknown strategy {strategy[i]!r}"),
            (c < 0, lambda i: f"unknown category {category[i]!r}"),
            (m < 0, lambda i: f"unknown metric {metric[i]!r}"),
            (unit, lambda i: f"{strategy[i]} bootstrap {int(bootstrap[i])} is not a unit"
             " of this run"),
            (d < 0, lambda i: f"day {int(day[i])} is not a query day of the dataset"),
            (~table.exists[cell], lambda i: f"{strategy[i]} scores no {category[i]}"),
            (v < 0, lambda i: _error(float, value[i]) or "values must be finite and lie in [0, 1]"),
            (_repeats(flat, written), lambda i: f"repeats {table.describe([x[i] for x in cell])}"),
        ])
        written.reshape(-1)[flat] = True
        table.values.reshape(-1)[flat] = v
    empty = np.argwhere(table.exists & ~written)
    if empty.size:
        raise DataFormatError(path, None, f"no row for {table.describe(empty[0].tolist())}")
    return table


def read_query_logs(
    path: str | Path,
    config: ExperimentConfig,
    dataset: Dataset,
    failed: set[tuple[str, int]] = frozenset(),
) -> dict[tuple[str, int], QueryLog]:
    """Rebuild per-(strategy, bootstrap) logs; pools come from the replayed splits.

    Pairs listed in ``failed`` had no log in the original run; pairs with no
    events (no_al) get an empty log, mirroring the run path. A row is
    rejected with its line if its bootstrap, day or node is not an integer,
    if its pair has no log (a strategy the config does not run, a bootstrap
    out of range, or a failed pair), if it queries a node outside its pool,
    if its day is not a query day, or if it repeats an earlier row. It is
    read and checked as :func:`read_daily_records` reads its file.
    """
    pools = [
        make_split(dataset, config.holdout_fraction, config.base_seed + b).pool
        for b in range(config.bootstraps)
    ]
    in_pool = np.zeros((config.bootstraps, dataset.node_count), dtype=bool)
    for b, pool in enumerate(pools):
        in_pool[b, list(pool)] = True
    logged = np.array(
        [[(s, b) not in failed for b in range(config.bootstraps)] for s in config.strategies]
    )
    days = np.array(query_days(config, dataset), dtype=np.int64)
    seen = np.zeros((*logged.shape, days.size, dataset.node_count), dtype=bool)
    codes = (
        _positions(config.strategies),
        _positions(range(config.bootstraps), int),
        _positions(days.tolist(), int),
        _positions(range(dataset.node_count), int),
    )
    for line_numbers, *columns in _read_blocks(path, _QUERY_HEADER):
        strategy, bootstrap, day, node = columns
        s, b, d, n = (code.array(column) for code, column in zip(codes, columns))
        cell = tuple(np.maximum(x, 0) for x in (s, b, d, n))
        flat = np.ravel_multi_index(cell, seen.shape)
        unit = (s < 0) | (b < 0) | ~logged[cell[:2]]
        pool = (n < 0) | ~in_pool[cell[1], cell[3]]
        again = _repeats(flat, seen)
        _check(path, line_numbers, [
            (b == -2, lambda i: _error(int, bootstrap[i])),
            (d == -2, lambda i: _error(int, day[i])),
            (n == -2, lambda i: _error(int, node[i])),
            (unit, lambda i: f"{strategy[i]} bootstrap {int(bootstrap[i])} is not a logged unit"
             " of this run"),
            (pool, lambda i: f"queried node {int(node[i])} is not a pool node"),
            (d < 0, lambda i: f"day {int(day[i])} is not a query day of the dataset"),
            (again, lambda i: f"repeats the query of node {int(node[i])} on day {int(day[i])}"),
        ])
        seen.reshape(-1)[flat] = True
    logs = {}
    for s, b in np.argwhere(logged).tolist():
        d, n = np.nonzero(seen[s, b])
        events = np.column_stack((days[d], n))
        logs[config.strategies[s], b] = QueryLog.from_events(pools[b], events)
    return logs


def recompute_reports(result_dir: str | Path) -> dict[str, Path]:
    """Rebuild every derived CSV from daily.csv + queries.csv + the manifest."""
    out = Path(result_dir)
    manifest_path = out / "run_manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no run_manifest.json under {out}")
    manifest = read_manifest(manifest_path)
    config = config_from_dict(manifest["config"])
    dataset = load_configured_dataset(config)
    failed = set()
    for strategy, bootstrap, _ in manifest.get("failures", []):
        if strategy not in config.strategies or not 0 <= bootstrap < config.bootstraps:
            raise ConfigError(
                f"{manifest_path}: failures entry {[strategy, bootstrap]} names no unit of this run"
            )
        failed.add((strategy, bootstrap))
    records = read_daily_records(out / "daily.csv", config, dataset, failed)
    query_logs = read_query_logs(out / "queries.csv", config, dataset, failed)
    cpis = compute_cpis(records)
    result = RunResult(
        config=config,
        records=records,
        query_logs=query_logs,
        splits={},
        trained_nodes={},
        cpis=cpis,
        aggregate=aggregate_records(records, cpis),
    )
    paths = {name: out / name for name in REPORT_FILES}
    _write_derived(paths, result, config, dataset)
    return paths
