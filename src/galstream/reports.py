"""Report emission: every run produces a directory of CSVs plus a manifest.

``daily.csv`` and ``queries.csv`` are the primary outputs; everything else
is derived from them (plus the deterministic dataset) and can be recomputed
with :func:`recompute_reports`, which the CLI exposes as ``report``. Both
paths share the same writers, so recomputed files match the originals byte
for byte.
"""

from __future__ import annotations

import csv
import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .burden import (
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
from .config import ExperimentConfig, config_from_dict, config_to_dict, read_manifest
from .datasets import Dataset, make_split
from .exceptions import ConfigError, ConvergenceError
from .graphs import CENTRALITY_METRICS
from .harness import (
    MetricRecord,
    RunResult,
    aggregate_records,
    compute_cpis,
    load_configured_dataset,
)
from .metrics import EVAL_CATEGORIES, PERFORMANCE_METRICS, PerformanceSeries, rolling_mean_std
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

_BURDEN_SIMPLE = (
    ("sampling_entropy", sampling_entropy),
    ("coverage_ratio", coverage_ratio),
    ("average_time_gap", average_time_gap),
)


def _fmt(value) -> str:
    if value is None:
        return NA
    if isinstance(value, float):  # includes numpy float scalars
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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


def _daily_rows(records: list[MetricRecord]):
    for r in records:
        yield (r.strategy, r.bootstrap, r.day, r.category, r.metric, r.value)


def _aggregate_rows(config, aggregate):
    metric_order = list(PERFORMANCE_METRICS) + [f"cpi_{m}" for m in PERFORMANCE_METRICS]
    for strategy in config.strategies:
        for category in EVAL_CATEGORIES:
            for metric in metric_order:
                entry = aggregate.get((strategy, category, metric))
                if entry is None:
                    continue
                mean, std, n = entry
                yield (strategy, category, metric, mean, std, n)


def _rolling_rows(config, records):
    by_key: dict[tuple[str, str, str], dict[int, list[float]]] = {}
    for r in records:
        if r.value is None:
            continue
        by_key.setdefault((r.strategy, r.category, r.metric), {}).setdefault(
            r.day, []
        ).append(r.value)
    for strategy in config.strategies:
        for category in EVAL_CATEGORIES:
            for metric in PERFORMANCE_METRICS:
                days_map = by_key.get((strategy, category, metric))
                if not days_map:
                    continue
                days = sorted(days_map)
                values = np.array([np.mean(days_map[d]) for d in days])
                series = PerformanceSeries(metric, tuple(days), values)
                means, stds = rolling_mean_std(series, config.rolling_window)
                for i, day in enumerate(days):
                    yield (
                        strategy,
                        category,
                        metric,
                        day,
                        float(means.values[i]),
                        float(stds.values[i]),
                    )


def _strategy_logs(config, query_logs) -> dict[str, list[QueryLog]]:
    per_strategy: dict[str, list[QueryLog]] = {s: [] for s in config.strategies}
    for (strategy, bootstrap) in sorted(
        query_logs, key=lambda k: (config.strategies.index(k[0]), k[1])
    ):
        per_strategy[strategy].append(query_logs[(strategy, bootstrap)])
    return per_strategy


def _mean_std_rows(values: list[float]):
    if not values:
        return None, None, 0
    arr = np.array(values)
    return float(arr.mean()), float(arr.std()), arr.size


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
    return _mean_std_rows(values)


def _burden_rows(config, query_logs):
    per_strategy = _strategy_logs(config, query_logs)
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


def _tradeoff_rows(config, aggregate, query_logs):
    per_strategy = _strategy_logs(config, query_logs)
    cpi_key = f"cpi_{config.tradeoff_metric}"
    for strategy in config.strategies:
        entry = aggregate.get((strategy, "test_set_same_day", cpi_key))
        mean_cpi = entry[0] if entry else None
        mean_exertion, _, _ = _over_logs(
            lambda log: over_exertion(log, config.reference_gap), per_strategy[strategy]
        )
        yield (strategy, mean_cpi, mean_exertion)


def _heatmap_rows(config, query_logs, dataset):
    per_strategy = _strategy_logs(config, query_logs)
    for strategy in config.strategies:
        tables = [
            mean_normalized_centrality({strategy: log}, dataset.graph)[strategy]
            for log in per_strategy[strategy]
        ]
        row = [strategy]
        for metric in CENTRALITY_METRICS:
            values = [t[metric] for t in tables if t[metric] is not None]
            mean, _, _ = _mean_std_rows(values)
            row.append(mean)
        yield tuple(row)


def _correlation_rows(config, query_logs, dataset):
    per_strategy = _strategy_logs(config, query_logs)
    for strategy in config.strategies:
        for metric in CENTRALITY_METRICS:
            for quantity in BURDEN_QUANTITIES:
                for method in CORRELATION_METHODS:
                    stats = _over_logs(
                        lambda log: centrality_burden_correlation(
                            log, dataset.graph, metric, quantity, method
                        ),
                        per_strategy[strategy],
                    )
                    yield (strategy, metric, quantity, method, *stats)


def _significance_observations(config, records, cpis):
    """Per (category, metric): strategy -> observation list."""
    obs: dict[tuple[str, str], dict[str, list[float]]] = {}
    if config.significance_unit == "day":
        for r in records:
            if r.value is None:
                continue
            obs.setdefault((r.category, r.metric), {}).setdefault(r.strategy, []).append(
                r.value
            )
    else:  # bootstrap_mean
        sums: dict[tuple[str, str, str, int], list[float]] = {}
        for r in records:
            if r.value is None:
                continue
            sums.setdefault((r.category, r.metric, r.strategy, r.bootstrap), []).append(
                r.value
            )
        for (category, metric, strategy, _), values in sorted(sums.items()):
            obs.setdefault((category, metric), {}).setdefault(strategy, []).append(
                float(np.mean(values))
            )
    for (strategy, bootstrap, category, metric), value in sorted(cpis.items()):
        if value is None:
            continue
        obs.setdefault((category, f"cpi_{metric}"), {}).setdefault(strategy, []).append(
            value
        )
    return obs


def _significance_rows(config, records, cpis):
    obs = _significance_observations(config, records, cpis)
    metric_order = list(PERFORMANCE_METRICS) + [f"cpi_{m}" for m in PERFORMANCE_METRICS]
    for category in EVAL_CATEGORIES:
        for metric in metric_order:
            groups = obs.get((category, metric))
            if not groups or len(groups) < 2:
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


def _query_rows(config, query_logs):
    for (strategy, bootstrap) in sorted(
        query_logs, key=lambda k: (config.strategies.index(k[0]), k[1])
    ):
        log = query_logs[(strategy, bootstrap)]
        rows = [
            (day, node)
            for node, days in log.days_by_node.items()
            for day in days
        ]
        for day, node in sorted(rows):
            yield (strategy, bootstrap, day, node)


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
    _write_csv(
        paths["daily.csv"],
        ["strategy", "bootstrap", "day", "category", "metric", "value"],
        _daily_rows(result.records),
    )
    _write_csv(
        paths["queries.csv"],
        ["strategy", "bootstrap", "day", "node"],
        _query_rows(config, result.query_logs),
    )
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
    _write_csv(
        paths["aggregate.csv"],
        ["strategy", "category", "metric", "mean", "std", "n"],
        _aggregate_rows(config, result.aggregate),
    )
    _write_csv(
        paths["rolling.csv"],
        ["strategy", "category", "metric", "day", "rolling_mean", "rolling_std"],
        _rolling_rows(config, result.records),
    )
    _write_csv(
        paths["burden.csv"],
        ["strategy", "metric", "threshold", "mean", "std", "n"],
        _burden_rows(config, result.query_logs),
    )
    _write_csv(
        paths["tradeoff.csv"],
        ["strategy", "mean_cpi", "mean_over_exertion"],
        _tradeoff_rows(config, result.aggregate, result.query_logs),
    )
    _write_csv(
        paths["centrality_heatmap.csv"],
        ["strategy"] + list(CENTRALITY_METRICS),
        _heatmap_rows(config, result.query_logs, dataset),
    )
    _write_csv(
        paths["centrality_correlation.csv"],
        ["strategy", "centrality", "burden_quantity", "method", "mean", "std", "n"],
        _correlation_rows(config, result.query_logs, dataset),
    )
    _write_csv(
        paths["significance.csv"],
        ["category", "metric", "anova_f", "anova_p", "kw_h", "kw_p"],
        _significance_rows(config, result.records, result.cpis),
    )


def read_daily_records(path: str | Path) -> list[MetricRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            value = None if row["value"] == NA else float(row["value"])
            records.append(
                MetricRecord(
                    row["strategy"],
                    int(row["bootstrap"]),
                    int(row["day"]),
                    row["category"],
                    row["metric"],
                    value,
                )
            )
    return records


def read_query_logs(
    path: str | Path,
    config: ExperimentConfig,
    dataset: Dataset,
    failed: set[tuple[str, int]] = frozenset(),
) -> dict[tuple[str, int], QueryLog]:
    """Rebuild per-(strategy, bootstrap) logs; pools come from the replayed splits.

    Pairs listed in ``failed`` had no log in the original run and are skipped;
    pairs with no events (no_al) get an empty log, mirroring the run path.
    """
    events: dict[tuple[str, int], list[tuple[int, int]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (row["strategy"], int(row["bootstrap"]))
            events.setdefault(key, []).append((int(row["day"]), int(row["node"])))
    logs = {}
    pools: dict[int, tuple[int, ...]] = {}
    for strategy in config.strategies:
        for bootstrap in range(config.bootstraps):
            if (strategy, bootstrap) in failed:
                continue
            if bootstrap not in pools:
                split = make_split(
                    dataset, config.holdout_fraction, config.base_seed + bootstrap
                )
                pools[bootstrap] = split.pool
            key = (strategy, bootstrap)
            logs[key] = QueryLog.from_events(pools[bootstrap], events.get(key, []))
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
    records = read_daily_records(out / "daily.csv")
    failed = {(s, int(b)) for s, b, _ in manifest.get("failures", [])}
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
