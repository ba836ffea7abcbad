"""Day-level stream simulation: query, retrain, evaluate, aggregate.

One work unit is a (strategy, bootstrap) pair. Units are pure functions of
(dataset, config, strategy, bootstrap), each with its own derived seeds, so
serial and parallel execution produce identical results and a failing unit
aborts only itself.

A run's daily metric values live in one :class:`DailyTable` of parallel
columns; one sort of it makes each series a contiguous day-ordered slice,
which the CPIs, the aggregates and every derived report read.
"""

from __future__ import annotations

from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .burden import QueryLog
from .config import ExperimentConfig, validate_against_dataset, validate_config
from .datasets import Dataset, Split, generate_synthetic, load_dataset, make_split
from .exceptions import UndefinedMetricError
from .gcn import (
    MISSING_LABEL,
    build_normalized_adjacency,
    embed,
    forward,
    train,
)
from .metrics import (
    EVAL_CATEGORIES,
    PERFORMANCE_METRICS,
    EvalSlice,
    PerformanceSeries,
    compute_metric,
    cpi,
)
from .strategies import STRATEGY_NAMES, SelectionContext, select

_MODEL_SEED_TAG = 1_000_003  # disjoint from day indices


class MetricRecord(NamedTuple):
    """One row of a :class:`DailyTable`, by name; ``value`` is None where undefined."""
    strategy: str
    bootstrap: int
    day: int
    category: str
    metric: str
    value: float | None


SeriesKey = tuple[str, int, str, str]  # (strategy, bootstrap, category, metric)
STRATEGY_CODES, CATEGORY_CODES, METRIC_CODES = (
    {name: code for code, name in enumerate(names)}
    for names in (STRATEGY_NAMES, EVAL_CATEGORIES, PERFORMANCE_METRICS)
)


class DailyTable:
    """Flat (strategy, bootstrap, day, category, metric, value) rows as parallel ``columns``.

    Names are codes into their vocabularies; an undefined value is NaN. One
    stable lexsort by (strategy, category, metric, bootstrap, day) makes each
    series a slice ``slices[key]`` of the defined ``series_days`` and
    ``series_values``, in day order; ``groups`` lists each (strategy, category,
    metric)'s series in bootstrap order, and ``series_means`` holds the mean
    of each series with a defined value. Iterating yields
    :class:`MetricRecord` rows in their original order.
    """

    def __init__(self, rows: array) -> None:
        flat = np.array(rows).reshape(-1, 6).T
        self.columns = (*flat[:5].astype(np.int64), flat[5].copy())
        strategy, bootstrap, day, category, metric, value = self.columns
        order = np.lexsort((day, bootstrap, metric, category, strategy))
        key, value = np.stack([strategy, category, metric, bootstrap, day])[:, order], value[order]
        changed = key[:, 1:] != key[:, :-1]
        starts = np.flatnonzero(np.r_[order.size > 0, changed[:4].any(axis=0)])
        defined = ~np.isnan(value)
        bounds = np.r_[0, np.cumsum(defined)][np.r_[starts, order.size]].tolist()
        self.slices: dict[SeriesKey, slice] = {
            (STRATEGY_NAMES[s], b, EVAL_CATEGORIES[c], PERFORMANCE_METRICS[m]): slice(lo, hi)
            for (s, c, m, b, _), lo, hi in zip(key[:, starts].T.tolist(), bounds, bounds[1:])
        }
        self.groups = {g: list(ks) for g, ks in groupby(self.slices, lambda k: (k[0], k[2], k[3]))}
        self.series_days, self.series_values = key[4][defined], value[defined]
        defined_series = ((k, self.series_values[r]) for k, r in self.slices.items())
        self.series_means = {k: float(np.mean(v)) for k, v in defined_series if v.size}

    def __len__(self) -> int:
        return self.columns[0].size

    def __iter__(self):
        s, b, d, c, m, v = self.columns
        vocabularies = (STRATEGY_NAMES, EVAL_CATEGORIES, PERFORMANCE_METRICS)
        s, c, m = (np.array(names, dtype=object)[x] for names, x in zip(vocabularies, (s, c, m)))
        columns = (x.tolist() for x in (s, b, d, c, m, np.where(np.isnan(v), None, v)))
        return map(MetricRecord._make, zip(*columns))

    def __eq__(self, other) -> bool:
        return isinstance(other, DailyTable) and all(
            np.array_equal(a, b, equal_nan=True) for a, b in zip(self.columns, other.columns)
        )

    def group_rows(self, keys: list[SeriesKey]) -> slice:
        """The defined rows of a group's series, in bootstrap then day order."""
        return slice(self.slices[keys[0]].start, self.slices[keys[-1]].stop)


@dataclass
class UnitResult:
    split: Split
    rows: array  # flat DailyTable rows
    query_log: QueryLog
    trained_nodes: frozenset[int]


@dataclass
class RunResult:
    config: ExperimentConfig
    records: DailyTable
    query_logs: dict[tuple[str, int], QueryLog]
    splits: dict[int, Split]
    trained_nodes: dict[tuple[str, int], frozenset[int]]
    cpis: dict[SeriesKey, float | None]
    aggregate: dict[tuple[str, str, str], tuple[float, float, int]]
    failures: list[tuple[str, int, str]] = field(default_factory=list)


def unit_seed(base_seed: int, strategy: str, bootstrap: int, tag: int) -> int:
    """Stable per-(strategy, bootstrap, tag) seed, independent of config order."""
    entropy = (base_seed, STRATEGY_NAMES.index(strategy), bootstrap, tag)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def load_configured_dataset(config: ExperimentConfig) -> Dataset:
    if config.source == "synthetic":
        return generate_synthetic(config.synthetic, config.synthetic_seed)
    return load_dataset(
        config.edges_path, config.features_path, config.labels_path, name=config.name
    )


# ---------------------------------------------------------------------------
# Evaluation slices
# ---------------------------------------------------------------------------


def build_eval_slices(
    split: Split,
    chosen: tuple[int, ...],
    labels_now: np.ndarray,
    labels_next: np.ndarray,
    probs_now: np.ndarray,
    probs_next: np.ndarray,
) -> dict[str, EvalSlice | None]:
    """The four node-category slices for one day; missing-label nodes drop out.

    A category maps to None when its node set is empty after exclusions
    (the undefined marker). ``train_next_day`` is absent entirely when
    nothing was queried.
    """
    chosen_set = set(chosen)
    unqueried = tuple(v for v in split.pool if v not in chosen_set)
    plan = [
        ("test_set_same_day", split.holdout, labels_now, probs_now),
        ("unqueried_same_day", unqueried, labels_now, probs_now),
        ("unqueried_next_day", unqueried, labels_next, probs_next),
    ]
    if chosen:
        plan.append(("train_next_day", chosen, labels_next, probs_next))
    slices: dict[str, EvalSlice | None] = {}
    for category, nodes, labels, probs in plan:
        keep = [v for v in nodes if labels[v] != MISSING_LABEL]
        if not keep:
            slices[category] = None
            continue
        slices[category] = EvalSlice(labels[keep], probs[keep])
    return slices


def _slice_records(
    rows: array, strategy: int, bootstrap: int, day: int, slices: dict[str, EvalSlice | None]
) -> None:
    for category in EVAL_CATEGORIES:
        if category not in slices:
            continue  # category absent (no_al has no train slice)
        s = slices[category]
        for metric in PERFORMANCE_METRICS:
            if s is None:
                value = np.nan
            else:
                try:
                    value = float(compute_metric(s, metric))
                except UndefinedMetricError:
                    value = np.nan
            codes = (CATEGORY_CODES[category], METRIC_CODES[metric])
            rows.extend((strategy, bootstrap, day, *codes, value))


# ---------------------------------------------------------------------------
# One (strategy, bootstrap) unit
# ---------------------------------------------------------------------------


def run_unit(
    dataset: Dataset, config: ExperimentConfig, strategy: str, bootstrap: int
) -> UnitResult:
    split = make_split(dataset, config.holdout_fraction, config.base_seed + bootstrap)
    holdout_set = set(split.holdout)
    adj = build_normalized_adjacency(dataset.graph)
    hyper = config.train_config()
    init_seed = unit_seed(config.base_seed, strategy, bootstrap, _MODEL_SEED_TAG)

    frames = dataset.days
    initial = config.initial_days
    buffer: list[tuple[np.ndarray, np.ndarray, list[int]]] = []
    trained: set[int] = set()
    for frame in frames[:initial]:
        mask = [v for v in split.pool if frame.labels[v] != MISSING_LABEL]
        if mask:
            buffer.append((frame.features, frame.labels, mask))
            trained.update(mask)
    if not buffer:
        raise RuntimeError("no labeled pool nodes in the initial training window")
    params = train(init_seed, adj, buffer, hyper)

    rows = array("d")
    history: dict[int, list[int]] = {}

    current = forward(params, adj, frames[initial].features)
    for t in range(initial, dataset.day_count - 1):
        frame = frames[t]
        next_frame = frames[t + 1]

        if strategy == "no_al":
            chosen: tuple[int, ...] = ()
            evaluated = current  # no query, so the parameters did not change
        else:
            if strategy == "featprop":
                embeddings = frame.features  # raw features; the strategy propagates
            elif config.embedding_mode == "model_based":
                embeddings = current.hidden
            else:
                embeddings = embed("direct", None, adj, frame.features)
            ctx = SelectionContext(
                graph=dataset.graph,
                adj=adj,
                embeddings=embeddings,
                probabilities=current.probabilities,
                pool=split.pool,
                history={n: tuple(d) for n, d in history.items()},
                k=config.queries_per_day,
                rng_seed=unit_seed(config.base_seed, strategy, bootstrap, t),
            )
            chosen = select(strategy, ctx).chosen
            if set(chosen) & holdout_set:
                raise AssertionError("holdout node selected for querying")
            for v in chosen:
                history.setdefault(v, []).append(frame.day_index)
            mask = [v for v in chosen if frame.labels[v] != MISSING_LABEL]
            if mask:
                if set(mask) & holdout_set:
                    raise AssertionError("holdout node entered the labeled buffer")
                buffer.append((frame.features, frame.labels, mask))
                trained.update(mask)
            params = train(init_seed, adj, buffer, hyper)
            evaluated = forward(params, adj, frame.features)

        upcoming = forward(params, adj, next_frame.features)
        slices = build_eval_slices(
            split,
            chosen,
            frame.labels,
            next_frame.labels,
            evaluated.probabilities,
            upcoming.probabilities,
        )
        _slice_records(rows, STRATEGY_CODES[strategy], bootstrap, frame.day_index, slices)
        current = upcoming  # the next day starts from these parameters and features

    if trained & holdout_set:
        raise AssertionError("holdout node entered the labeled buffer")
    return UnitResult(
        split=split,
        rows=rows,
        query_log=QueryLog(split.pool, history),
        trained_nodes=frozenset(trained),
    )


def _execute_unit(args) -> tuple[str, int, UnitResult | None, str | None]:
    dataset, config, strategy, bootstrap = args
    try:
        return strategy, bootstrap, run_unit(dataset, config, strategy, bootstrap), None
    except Exception as exc:  # a failing bootstrap aborts only itself
        return strategy, bootstrap, None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Derived quantities (shared with report recomputation)
# ---------------------------------------------------------------------------


def compute_cpis(table: DailyTable) -> dict[SeriesKey, float | None]:
    """Each series' CPI over its defined days.

    Undefined (None) when fewer than two days are defined or the defined
    days are not uniformly spaced.
    """
    out: dict[SeriesKey, float | None] = {}
    for key, rows in table.slices.items():
        days = table.series_days[rows]
        gaps = np.diff(days)
        defined = days.size >= 2 and (gaps == gaps[0]).all()
        series = PerformanceSeries(key[3], days, table.series_values[rows])
        out[key] = cpi(series) if defined else None
    return out


def mean_std(values: list[float]) -> tuple[float | None, float | None, int]:
    """Mean, population std and count; undefined for no values."""
    if not values:
        return None, None, 0
    arr = np.array(values)
    return float(arr.mean()), float(arr.std()), arr.size


def aggregate_records(
    table: DailyTable,
    cpis: dict[SeriesKey, float | None],
) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    """Mean and population std across bootstraps of each (strategy, category, metric).

    Plain metrics are first averaged over each bootstrap's defined days;
    CPI metrics use the per-bootstrap CPI values directly and appear under
    ``cpi_<metric>``.
    """
    out: dict[tuple[str, str, str], tuple[float, float, int]] = {}
    for (strategy, category, metric), keys in table.groups.items():
        means = [table.series_means[k] for k in keys if k in table.series_means]
        if means:
            out[(strategy, category, metric)] = mean_std(means)
        defined = [cpis[k] for k in keys if cpis.get(k) is not None]
        if defined:
            out[(strategy, category, f"cpi_{metric}")] = mean_std(defined)
    return out


# ---------------------------------------------------------------------------
# Full experiment
# ---------------------------------------------------------------------------


def run_experiment(config: ExperimentConfig, dataset: Dataset | None = None) -> RunResult:
    validate_config(config)
    if dataset is None:
        dataset = load_configured_dataset(config)
    validate_against_dataset(config, dataset.node_count, dataset.day_count)

    units = [
        (dataset, config, strategy, bootstrap)
        for strategy in config.strategies
        for bootstrap in range(config.bootstraps)
    ]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(_execute_unit, units, chunksize=1))
    else:
        outcomes = [_execute_unit(u) for u in units]

    rows = array("d")
    query_logs: dict[tuple[str, int], QueryLog] = {}
    trained_nodes: dict[tuple[str, int], frozenset[int]] = {}
    splits: dict[int, Split] = {}
    failures: list[tuple[str, int, str]] = []
    for strategy, bootstrap, unit, error in outcomes:
        if unit is None:
            failures.append((strategy, bootstrap, error))
            continue
        rows.extend(unit.rows)
        query_logs[(strategy, bootstrap)] = unit.query_log
        trained_nodes[(strategy, bootstrap)] = unit.trained_nodes
        splits[bootstrap] = unit.split

    records = DailyTable(rows)
    cpis = compute_cpis(records)
    return RunResult(
        config=config,
        records=records,
        query_logs=query_logs,
        splits=splits,
        trained_nodes=trained_nodes,
        cpis=cpis,
        aggregate=aggregate_records(records, cpis),
        failures=failures,
    )
