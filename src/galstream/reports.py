"""Report emission: every run produces a directory of CSVs plus a manifest.

``daily.csv`` and ``queries.csv`` are the primary outputs; everything else
is derived from them (plus the deterministic dataset) and can be recomputed
with :func:`recompute_reports`, which the CLI exposes as ``report``. Both
paths share the writers and the dense grid of one
:class:`~galstream.harness.DailyTable`, whose cells the manifest and the
dataset's query days fix. Reading ``daily.csv`` puts each row in its cell,
so recomputed files match the originals byte for byte whatever the row order.
"""

from __future__ import annotations

import csv
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
from .datasets import Dataset, make_split
from .exceptions import ConfigError, ConvergenceError, DataFormatError
from .graphs import CENTRALITY_METRICS
from .harness import (
    DailyTable,
    RunResult,
    aggregate_records,
    compute_cpis,
    load_configured_dataset,
    mean_std,
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

NA = "NA"

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


# Report CSVs are written a block of this many rows at a time, so that a
# block's strings stay small next to the columns they format.
_BLOCK_ROWS = 1 << 10


def _cells(column) -> list[str]:
    """One column's cells: ``repr`` of a float, ``str`` of anything else, and NA for an
    undefined value, which is None or, in a float array, NaN.

    A float array is formatted with one ``repr`` pass over its values.
    """
    if not isinstance(column, np.ndarray):
        return [
            NA if v is None else float.__repr__(v) if isinstance(v, float) else str(v)
            for v in column
        ]
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    cells = list(map(float.__repr__, column.tolist()))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = NA
    return cells


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a report CSV from its columns, arrays or sequences of equal length.

    No cell holds a comma, quote or line break, so each line is its cells
    joined by commas, as ``csv.writer`` writes it.
    """
    rows = len(columns[0]) if len(columns) else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            cells = [_cells(column[start : start + _BLOCK_ROWS]) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_rows(path: Path, header: list[str], rows) -> None:
    _write_csv(path, header, list(zip(*rows)))


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


def _aggregate_rows(config, aggregate):
    for strategy in config.strategies:
        for category in EVAL_CATEGORIES:
            for metric in _METRIC_ORDER:
                entry = aggregate.get((strategy, category, metric))
                if entry is not None:
                    yield (strategy, category, metric, *entry)


def _rolling_columns(config, table: DailyTable) -> list:
    """The rows of ``rolling.csv`` as columns: each group's rolling mean and std over
    its defined days."""
    # each day's mean over its group's bootstraps; each group's defined days first, in order
    per_day = row_means(np.swapaxes(table.series(), 1, 2))
    order = np.argsort(np.isnan(per_day), axis=1, kind="stable")
    lengths = np.count_nonzero(~np.isnan(per_day), axis=1)
    means, stds = rolling_mean_std_rows(
        np.take_along_axis(per_day, order, axis=1), lengths, config.rolling_window
    )
    group, i = np.nonzero(np.arange(per_day.shape[1]) < lengths[:, None])
    keys = np.array(table.keys, dtype=object)[group]
    return [*keys.T, table.days[order[group, i]], means[group, i], stds[group, i]]


def _strategy_logs(config, query_logs) -> dict[str, list[QueryLog]]:
    """Each strategy's logs in bootstrap order."""
    keys = sorted(query_logs)
    return {s: [query_logs[k] for k in keys if k[0] == s] for s in config.strategies}


def _over_logs(fn, logs: list[QueryLog]):
    """Mean, std and count of ``fn`` over the logs where it is defined.

    A centrality the graph cannot support leaves ``fn`` undefined on every log.
    """
    values = []
    for log in logs:
        try:
            values.append(fn(log))
        except (ValueError, ConvergenceError):
            pass
    return mean_std(values)


def _burden_rows(config, per_strategy):
    for strategy in config.strategies:
        logs = per_strategy[strategy]
        for name, fn in _BURDEN_SIMPLE:
            yield (strategy, name, None, *_over_logs(fn, logs))
        for threshold in config.gap_thresholds:
            for name, fn in (
                ("within_gap_pct", within_gap_percentage),
                ("over_exertion", over_exertion),
            ):
                stats = _over_logs(lambda log: fn(log, threshold), logs)
                yield (strategy, name, threshold, *stats)


def _tradeoff_rows(config, aggregate, per_strategy):
    cpi_key = f"cpi_{config.tradeoff_metric}"
    for strategy in config.strategies:
        entry = aggregate.get((strategy, "test_set_same_day", cpi_key))
        mean_cpi = entry[0] if entry else None
        mean_exertion, _, _ = _over_logs(
            lambda log: over_exertion(log, config.reference_gap), per_strategy[strategy]
        )
        yield (strategy, mean_cpi, mean_exertion)


def _heatmap_rows(config, per_strategy, dataset):
    for strategy in config.strategies:
        logs = {str(i): log for i, log in enumerate(per_strategy[strategy])}
        tables = mean_normalized_centrality(logs, dataset.graph).values()
        row = [strategy]
        for metric in CENTRALITY_METRICS:
            mean, _, _ = mean_std([t[metric] for t in tables if t[metric] is not None])
            row.append(mean)
        yield tuple(row)


def _correlation_rows(config, per_strategy, dataset):
    logs = [log for strategy in config.strategies for log in per_strategy[strategy]]
    values = centrality_burden_correlations(logs, dataset.graph).reshape(len(logs), -1)
    start = 0
    for strategy in config.strategies:
        stop = start + len(per_strategy[strategy])
        keys = product(CENTRALITY_METRICS, BURDEN_QUANTITIES, CORRELATION_METHODS)
        for key, column in zip(keys, values[start:stop].T):
            yield (strategy, *key, *mean_std(column[~np.isnan(column)].tolist()))
        start = stop


def _significance_observations(config, table: DailyTable, cpis):
    """Per (category, metric): strategy -> observation list."""
    obs: dict[tuple[str, str], dict[str, list[float]]] = {}
    series = table.series()
    if config.significance_unit == "bootstrap_mean":
        series = row_means(series)
    for (strategy, category, metric), values in zip(table.keys, series):
        values = values[~np.isnan(values)].tolist()  # in bootstrap (then day) order
        if values:
            obs.setdefault((category, metric), {})[strategy] = values
        defined = cpis[(strategy, category, metric)]
        if defined:
            obs.setdefault((category, f"cpi_{metric}"), {})[strategy] = defined
    return obs


def _significance_rows(config, table, cpis):
    obs = _significance_observations(config, table, cpis)
    for category in EVAL_CATEGORIES:
        for metric in _METRIC_ORDER:
            groups = obs.get((category, metric), {})
            if len(groups) < 2:
                continue
            named = {s: groups[s] for s in config.strategies if s in groups}
            try:
                anova_f, anova_p = anova_oneway(named)
            except ValueError:
                anova_f = anova_p = None
            try:
                kw_h, kw_p = kruskal_wallis(named)
            except ValueError:
                kw_h = kw_p = None
            yield (category, metric, anova_f, anova_p, kw_h, kw_p)


def _query_columns(config, query_logs) -> list:
    """The rows of ``queries.csv`` as columns: each unit's queries, by (day, node)."""
    units = sorted(query_logs, key=lambda k: (config.strategies.index(k[0]), k[1]))
    counts = [query_logs[key].total_queries for key in units]
    days, nodes = [np.zeros(0, np.int64)], [np.zeros(0, np.intp)]
    for key, count in zip(units, counts):
        log = query_logs[key]
        unit_nodes = np.repeat(log.sampled, log.counts)
        unit_days = np.fromiter(chain.from_iterable(log.days_by_node.values()), np.int64, count)
        order = np.lexsort((unit_nodes, unit_days))
        days.append(unit_days[order])
        nodes.append(unit_nodes[order])
    return [
        np.repeat(np.array([s for s, _ in units], dtype=object), counts),
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
    per_strategy = _strategy_logs(config, result.query_logs)
    _write_rows(
        paths["aggregate.csv"],
        ["strategy", "category", "metric", "mean", "std", "n"],
        _aggregate_rows(config, result.aggregate),
    )
    _write_csv(
        paths["rolling.csv"],
        ["strategy", "category", "metric", "day", "rolling_mean", "rolling_std"],
        _rolling_columns(config, result.records),
    )
    _write_rows(
        paths["burden.csv"],
        ["strategy", "metric", "threshold", "mean", "std", "n"],
        _burden_rows(config, per_strategy),
    )
    _write_rows(
        paths["tradeoff.csv"],
        ["strategy", "mean_cpi", "mean_over_exertion"],
        _tradeoff_rows(config, result.aggregate, per_strategy),
    )
    _write_rows(
        paths["centrality_heatmap.csv"],
        ["strategy"] + list(CENTRALITY_METRICS),
        _heatmap_rows(config, per_strategy, dataset),
    )
    _write_rows(
        paths["centrality_correlation.csv"],
        ["strategy", "centrality", "burden_quantity", "method", "mean", "std", "n"],
        _correlation_rows(config, per_strategy, dataset),
    )
    _write_rows(
        paths["significance.csv"],
        ["category", "metric", "anova_f", "anova_p", "kw_h", "kw_p"],
        _significance_rows(config, result.records, result.cpis),
    )


def _report_rows(path: str | Path, header: list[str], parse):
    """``parse(*row)`` for each row of a report CSV, after checking its header and width.

    A row ``parse`` rejects with ``ValueError`` is reported with its file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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


# Report CSVs are read in blocks of lines of about this many bytes, so that
# a block's strings stay small next to the arrays they fill.
_BLOCK_BYTES = 1 << 16


class _Recheck(Exception):
    """A block of rows failed a check; reading the file row by row names the first bad line."""


def _report_columns(path: str | Path, header: list[str]):
    """Each block of a report CSV's rows, as one sequence of strings per column.

    The rows are those :func:`_report_rows` reads. A block of plain lines is
    split on commas and newlines in one call. A wrong header or row width,
    or a block with a quote, a carriage return or a blank line, raises
    :class:`_Recheck`, so such a file is read row by row.
    """
    width = len(header)
    with open(path, newline="") as fh:
        if next(csv.reader([fh.readline()]), None) != header:
            raise _Recheck
        while lines := fh.readlines(_BLOCK_BYTES):
            text = "".join(lines)
            if '"' in text or "\r" in text or "\n\n" in text or text.startswith("\n"):
                raise _Recheck
            # every line is its fields followed by one "\n" token
            if not text.endswith("\n"):
                text += "\n"
            tokens = text.replace("\n", ",\n,").split(",")[:-1]
            span = width + 1
            if len(tokens) % span or tokens[width::span].count("\n") != len(tokens) // span:
                raise _Recheck
            yield [tokens[i::span] for i in range(width)]


def _positions(*vocabularies) -> list[dict[str, int]]:
    """Each vocabulary as a map from an entry's text to its position.

    A number is known by its plain decimal text only, which is stricter
    than the ``int`` of the row-by-row check.
    """
    return [{str(name): i for i, name in enumerate(names)} for names in vocabularies]


def _codes(columns, positions) -> list[np.ndarray]:
    """Each column's entries as positions in its vocabulary; :class:`_Recheck` if one has none."""
    try:
        return [
            np.fromiter(map(position.__getitem__, column), np.intp, len(column))
            for column, position in zip(columns, positions)
        ]
    except KeyError:
        raise _Recheck from None


def _fill_daily(path: str | Path, table: DailyTable, written: np.ndarray) -> None:
    """Put each row of ``daily.csv`` in its cell; :class:`_Recheck` if any row fails a check."""
    positions = _positions(
        table.strategies,
        range(table.values.shape[1]),
        table.days.tolist(),
        EVAL_CATEGORIES,
        PERFORMANCE_METRICS,
    )
    rows = 0
    for *names, values in _report_columns(path, _DAILY_HEADER):
        cell = tuple(_codes(names, positions))
        try:
            parsed = {text: np.nan if text == NA else float(text) for text in dict.fromkeys(values)}
        except ValueError:
            raise _Recheck from None
        v = np.fromiter(parsed.values(), float, len(parsed))
        if np.count_nonzero(~((v >= 0.0) & (v <= 1.0))) != (NA in parsed):  # NA's NaN only
            raise _Recheck
        if not table.exists[cell].all():
            raise _Recheck
        flat = np.ravel_multi_index(cell, written.shape)
        written.reshape(-1)[flat] = True
        v = np.fromiter(map(parsed.__getitem__, values), float, len(values))
        table.values.reshape(-1)[flat] = v
        rows += len(values)
    if rows != np.count_nonzero(written):  # a cell was written twice, in one block or two
        raise _Recheck


def read_daily_records(
    path: str | Path,
    config: ExperimentConfig,
    dataset: Dataset,
    failed: set[tuple[str, int]] = frozenset(),
) -> DailyTable:
    """The rows of ``daily.csv``, each put in its cell of a :class:`~galstream.harness.DailyTable`.

    A row is rejected with its line if it names a strategy, category or
    metric outside the vocabularies; if its (strategy, bootstrap) is not a
    unit of the run (a strategy the config does not run, a bootstrap out of
    range, or a pair listed in ``failed``); if its day is not a query day;
    if its unit scores no such category (no_al's ``train_next_day``); if its
    value is neither ``NA`` nor in [0, 1]; or if its cell was already
    written. The first bad line of the file is the one reported. A file
    that leaves a cell empty is rejected, naming the first such cell.

    The rows are checked as whole columns, a bounded block at a time. Only
    when a block fails a check is the file read again row by row, which
    finds the first bad line, or accepts a row the block check was stricter
    about.
    """
    table = DailyTable(config, query_days(config, dataset), failed)
    written = np.zeros(table.values.shape, dtype=bool)

    def row(strategy, bootstrap, day, category, metric, value):
        cell = table.cell(strategy, int(bootstrap), int(day), category, metric)
        v = np.nan if value == NA else float(value)
        if not (value == NA or 0.0 <= v <= 1.0):
            raise ValueError("values must be finite and lie in [0, 1]")
        if written[cell]:
            raise ValueError(f"repeats {table.describe(cell)}")
        return cell, v

    try:
        _fill_daily(path, table, written)
    except _Recheck:
        table.values.fill(np.nan)
        written.fill(False)
        for cell, v in _report_rows(path, _DAILY_HEADER, row):
            written[cell], table.values[cell] = True, v
    empty = np.argwhere(table.exists & ~written)
    if empty.size:
        raise DataFormatError(path, None, f"no row for {table.describe(empty[0].tolist())}")
    return table


def _query_events(path: str | Path, config, dataset, days, pools, logged) -> dict:
    """Each logged unit's rows of ``queries.csv`` as an (events, 2) array of (day, node);
    :class:`_Recheck` on any bad row."""
    bootstraps, nodes = range(config.bootstraps), range(dataset.node_count)
    positions = _positions(config.strategies, bootstraps, days, nodes)
    blocks = [_codes(columns, positions) for columns in _report_columns(path, _QUERY_HEADER)]
    if not blocks:
        return {key: np.zeros((0, 2), np.int64) for key in logged}
    s, b, d, n = map(np.concatenate, zip(*blocks))
    units = list(product(config.strategies, bootstraps))
    is_logged = np.array([key in logged for key in units])
    in_pool = np.zeros((config.bootstraps, dataset.node_count), dtype=bool)
    for i, pool in pools.items():
        in_pool[i, list(pool)] = True
    unit = s * config.bootstraps + b
    query = np.ravel_multi_index((unit, d, n), (len(units), len(days), dataset.node_count))
    if not (is_logged[unit].all() and in_pool[b, n].all() and np.unique(query).size == query.size):
        raise _Recheck
    order = np.argsort(unit, kind="stable")
    bounds = np.searchsorted(unit[order], np.arange(len(units) + 1)).tolist()
    events = np.column_stack((np.array(days)[d[order]], n[order]))
    return {key: events[bounds[u] : bounds[u + 1]] for u, key in enumerate(units) if key in logged}


def read_query_logs(
    path: str | Path,
    config: ExperimentConfig,
    dataset: Dataset,
    failed: set[tuple[str, int]] = frozenset(),
) -> dict[tuple[str, int], QueryLog]:
    """Rebuild per-(strategy, bootstrap) logs; pools come from the replayed splits.

    Pairs listed in ``failed`` had no log in the original run; pairs with no
    events (no_al) get an empty log, mirroring the run path. A row is
    rejected with its line if its pair has no log (a strategy the config
    does not run, a bootstrap out of range, or a failed pair), if it queries
    a node outside its pool, if its day is not a query day, or if it repeats
    an earlier row. As in :func:`read_daily_records`, the rows are checked
    as whole columns, and only a file that fails a check is read row by row.
    """
    pools = {
        b: frozenset(make_split(dataset, config.holdout_fraction, config.base_seed + b).pool)
        for b in range(config.bootstraps)
    }
    logged = [(s, b) for s in config.strategies for b in pools if (s, b) not in failed]
    seen: dict[tuple[str, int], set[tuple[int, int]]] = {key: set() for key in logged}
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

    try:
        events = _query_events(path, config, dataset, days, pools, set(logged))
    except _Recheck:
        for key, day, node in _report_rows(path, _QUERY_HEADER, event):
            seen[key].add((day, node))
        events = seen
    return {key: QueryLog.from_events(pools[key[1]], events[key]) for key in logged}


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
