"""Row-by-row readers of ``daily.csv`` and ``queries.csv``.

``csv.reader`` reads each row, and each check runs on the row's parsed
values, in the order the row is checked. ``reports.read_daily_records`` and
``reports.read_query_logs`` must give what these give: the same table or
logs, or the same error with its message and line.
"""

import csv

import numpy as np

from galstream.burden import QueryLog
from galstream.datasets import make_split
from galstream.exceptions import DataFormatError
from galstream.harness import DailyTable, query_days
from galstream.metrics import EVAL_CATEGORIES, PERFORMANCE_METRICS
from galstream.reports import _DAILY_HEADER, _QUERY_HEADER, NA
from galstream.strategies import STRATEGY_NAMES


def oracle_report_rows(path, header, parse):
    """``parse(*row)`` for each row of a report CSV, after checking its header and width.

    A row ``parse`` rejects with ``ValueError``, or a field ``csv.reader``
    rejects, is reported with its file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            if next(reader, None) != header:
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
