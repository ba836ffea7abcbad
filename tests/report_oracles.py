"""Row-by-row readers of ``daily.csv`` and ``queries.csv``, and row-at-a-time
writers of the derived reports.

``csv.reader`` reads each row, and each check runs on the row's parsed
values, in the order the row is checked. ``reports.read_daily_records`` and
``reports.read_query_logs`` must give what these give: the same table or
logs, or the same error with its message and line.

The derived reports are built one strategy and one report row at a time,
each per-log measure called on one log and each mean and std taken over one
group's defined values, and written a cell at a time by
``metric_oracles.oracle_write_csv``. ``reports.emit_reports`` and
``reports.recompute_reports`` must write the same bytes.
"""

import csv
from itertools import product
from pathlib import Path

import numpy as np
from burden_oracles import oracle_over_logs
from metric_oracles import oracle_mean_std, oracle_rolling_rows, oracle_write_csv

from galstream.burden import (
    BURDEN_QUANTITIES,
    CORRELATION_METHODS,
    QueryLog,
    average_time_gap,
    centrality_burden_correlation,
    coverage_ratio,
    mean_normalized_centrality,
    over_exertion,
    sampling_entropy,
    within_gap_percentage,
)
from galstream.datasets import NA, make_split
from galstream.exceptions import DataFormatError
from galstream.graphs import CENTRALITY_METRICS
from galstream.harness import DailyTable, query_days
from galstream.metrics import EVAL_CATEGORIES, PERFORMANCE_METRICS
from galstream.reports import _DAILY_HEADER, _QUERY_HEADER
from galstream.stats import anova_oneway, kruskal_wallis
from galstream.strategies import STRATEGY_NAMES

_METRIC_ORDER = PERFORMANCE_METRICS + tuple(f"cpi_{m}" for m in PERFORMANCE_METRICS)


def oracle_report_rows(path, header, parse):
    """``parse(*row)`` for each row of a report CSV, after checking that it has a first
    line, its header and its width.

    A row ``parse`` rejects with ``ValueError``, or a field ``csv.reader``
    rejects, is reported with its file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise DataFormatError(path, 1, "file is empty")
            if first != header:
                raise DataFormatError(path, 1, f"header must be {','.join(header)}")
            for row in filter(None, reader):  # blank lines carry no row
                if len(row) != len(header):
                    raise DataFormatError(
                        path, reader.line_num, f"expected {len(header)} columns, got {len(row)}"
                    )
                try:
                    yield parse(*row)
                except ValueError as exc:
                    raise DataFormatError(path, reader.line_num, str(exc)) from None
        except csv.Error as exc:
            raise DataFormatError(path, reader.line_num, str(exc)) from None


def oracle_read_daily_records(path, config, dataset, failed=frozenset()):
    table = DailyTable(config, query_days(config, dataset), failed)
    written = np.zeros(table.values.shape, dtype=bool)
    units = {(table.strategies[s], b): s for s, b in np.argwhere(table.units).tolist()}
    days, categories, metrics = (
        {name: i for i, name in enumerate(names)}
        for names in (table.days.tolist(), EVAL_CATEGORIES, PERFORMANCE_METRICS)
    )

    def cell(strategy, bootstrap, day, category, metric):
        s, d = units.get((strategy, bootstrap)), days.get(day)
        cell = (s, bootstrap, d, categories.get(category), metrics.get(metric))
        if None not in cell and table.exists[cell]:
            return cell
        for kind, names, name in (
            ("strategy", STRATEGY_NAMES, strategy),
            ("category", EVAL_CATEGORIES, category),
            ("metric", PERFORMANCE_METRICS, metric),
        ):
            if name not in names:
                raise ValueError(f"unknown {kind} {name!r}")
        if s is None:
            raise ValueError(f"{strategy} bootstrap {bootstrap} is not a unit of this run")
        if d is None:
            raise ValueError(f"day {day} is not a query day of the dataset")
        raise ValueError(f"{strategy} scores no {category}")

    def row(strategy, bootstrap, day, category, metric, value):
        at = cell(strategy, int(bootstrap), int(day), category, metric)
        v = np.nan if value == NA else float(value)
        if not (value == NA or 0.0 <= v <= 1.0):
            raise ValueError("values must be finite and lie in [0, 1]")
        if written[at]:
            raise ValueError(f"repeats {table.describe(at)}")
        return at, v

    for at, v in oracle_report_rows(path, _DAILY_HEADER, row):
        written[at], table.values[at] = True, v
    empty = np.argwhere(table.exists & ~written)
    if empty.size:
        raise DataFormatError(path, None, f"no row for {table.describe(empty[0].tolist())}")
    return table


def oracle_read_query_logs(path, config, dataset, failed=frozenset()):
    pools = {
        b: frozenset(make_split(dataset, config.holdout_fraction, config.base_seed + b).pool)
        for b in range(config.bootstraps)
    }
    logged = [(s, b) for s in config.strategies for b in pools if (s, b) not in failed]
    seen = {key: set() for key in logged}
    days = query_days(config, dataset)

    def event(strategy, bootstrap, day, node):
        key, day, node = (strategy, int(bootstrap)), int(day), int(node)
        if key not in seen:
            raise ValueError(f"{strategy} bootstrap {key[1]} is not a logged unit of this run")
        if node not in pools[key[1]]:
            raise ValueError(f"queried node {node} is not a pool node")
        if day not in days:
            raise ValueError(f"day {day} is not a query day of the dataset")
        if (day, node) in seen[key]:
            raise ValueError(f"repeats the query of node {node} on day {day}")
        return key, day, node

    for key, day, node in oracle_report_rows(path, _QUERY_HEADER, event):
        seen[key].add((day, node))
    return {key: QueryLog.from_events(pools[key[1]], seen[key]) for key in logged}


def oracle_strategy_logs(config, query_logs):
    """Each strategy's logs in bootstrap order."""
    keys = sorted(query_logs)
    return {s: [query_logs[k] for k in keys if k[0] == s] for s in config.strategies}


def oracle_aggregate_rows(config, aggregate):
    for strategy in config.strategies:
        for category in EVAL_CATEGORIES:
            for metric in _METRIC_ORDER:
                entry = aggregate.get((strategy, category, metric))
                if entry is not None:
                    yield (strategy, category, metric, *entry)


def oracle_burden_rows(config, per_strategy):
    simple = (
        ("sampling_entropy", sampling_entropy),
        ("coverage_ratio", coverage_ratio),
        ("average_time_gap", average_time_gap),
    )
    for strategy in config.strategies:
        logs = per_strategy[strategy]
        for name, fn in simple:
            yield (strategy, name, None, *oracle_over_logs(fn, logs))
        for threshold in config.gap_thresholds:
            for name, fn in (
                ("within_gap_pct", within_gap_percentage),
                ("over_exertion", over_exertion),
            ):
                stats = oracle_over_logs(lambda log: fn(log, threshold), logs)
                yield (strategy, name, threshold, *stats)


def oracle_tradeoff_rows(config, aggregate, per_strategy):
    cpi_key = f"cpi_{config.tradeoff_metric}"
    for strategy in config.strategies:
        entry = aggregate.get((strategy, "test_set_same_day", cpi_key))
        exertion = oracle_over_logs(
            lambda log: over_exertion(log, config.reference_gap), per_strategy[strategy]
        )
        yield (strategy, entry[0] if entry else None, exertion[0])


def oracle_heatmap_rows(config, per_strategy, graph):
    for strategy in config.strategies:
        logs = {str(i): log for i, log in enumerate(per_strategy[strategy])}
        tables = mean_normalized_centrality(logs, graph).values()
        means = [
            oracle_mean_std([t[m] for t in tables if t[m] is not None])[0]
            for m in CENTRALITY_METRICS
        ]
        yield (strategy, *means)


def oracle_correlation_rows(config, per_strategy, graph):
    keys = product(config.strategies, CENTRALITY_METRICS, BURDEN_QUANTITIES, CORRELATION_METHODS)
    for strategy, metric, quantity, method in keys:
        stats = oracle_over_logs(
            lambda log: centrality_burden_correlation(log, graph, metric, quantity, method),
            per_strategy[strategy],
        )
        yield (strategy, metric, quantity, method, *stats)


def oracle_significance_rows(config, table, cpis):
    """Each (category, metric) row of ``significance.csv``, its observations gathered
    from the table's rows one at a time."""
    by_bootstrap = {}  # (strategy, category, metric) -> bootstrap -> defined values by day
    for record in table:
        if record.value is not None:
            key = (record.strategy, record.category, record.metric)
            by_bootstrap.setdefault(key, {}).setdefault(record.bootstrap, []).append(record.value)
    obs = {}
    for (strategy, category, metric), days in by_bootstrap.items():
        if config.significance_unit == "bootstrap_mean":
            values = [np.mean(day_values) for day_values in days.values()]
        else:
            values = [v for day_values in days.values() for v in day_values]
        obs.setdefault((category, metric), {})[strategy] = np.array(values)
    for (strategy, category, metric), defined in cpis.items():
        if defined:
            obs.setdefault((category, f"cpi_{metric}"), {})[strategy] = defined
    for category in EVAL_CATEGORIES:
        for metric in _METRIC_ORDER:
            groups = obs.get((category, metric), {})
            if len(groups) < 2:
                continue
            named = {s: groups[s] for s in config.strategies if s in groups}
            stats = []
            for test in (anova_oneway, kruskal_wallis):
                try:
                    stats.extend(test(named))
                except ValueError:
                    stats.extend((None, None))
            yield (category, metric, *stats)


def oracle_derived_reports(directory, result, config, dataset):
    """Write every derived report of ``result`` under ``directory``, a row at a time."""
    directory = Path(directory)
    per_strategy = oracle_strategy_logs(config, result.query_logs)
    reports = {
        "aggregate.csv": (
            ["strategy", "category", "metric", "mean", "std", "n"],
            oracle_aggregate_rows(config, result.aggregate),
        ),
        "rolling.csv": (
            ["strategy", "category", "metric", "day", "rolling_mean", "rolling_std"],
            oracle_rolling_rows(result.records, config.rolling_window),
        ),
        "burden.csv": (
            ["strategy", "metric", "threshold", "mean", "std", "n"],
            oracle_burden_rows(config, per_strategy),
        ),
        "tradeoff.csv": (
            ["strategy", "mean_cpi", "mean_over_exertion"],
            oracle_tradeoff_rows(config, result.aggregate, per_strategy),
        ),
        "centrality_heatmap.csv": (
            ["strategy", *CENTRALITY_METRICS],
            oracle_heatmap_rows(config, per_strategy, dataset.graph),
        ),
        "centrality_correlation.csv": (
            ["strategy", "centrality", "burden_quantity", "method", "mean", "std", "n"],
            oracle_correlation_rows(config, per_strategy, dataset.graph),
        ),
        "significance.csv": (
            ["category", "metric", "anova_f", "anova_p", "kw_h", "kw_p"],
            oracle_significance_rows(config, result.records, result.cpis),
        ),
    }
    for name, (header, rows) in reports.items():
        oracle_write_csv(directory / name, header, rows)
    return list(reports)
