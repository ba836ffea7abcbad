"""Day-level stream simulation: query, retrain, evaluate, aggregate.

One work unit is a (strategy, bootstrap) pair. Units are pure functions of
(dataset, config, strategy, bootstrap), each with its own derived seeds, so
serial and parallel execution produce identical results and a failing unit
aborts only itself.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    strategy: str
    bootstrap: int
    day: int
    category: str
    metric: str
    value: float | None


@dataclass
class UnitResult:
    strategy: str
    bootstrap: int
    split: Split
    records: list[MetricRecord]
    query_log: QueryLog
    trained_nodes: frozenset[int]


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[MetricRecord]
    query_logs: dict[tuple[str, int], QueryLog]
    splits: dict[int, Split]
    trained_nodes: dict[tuple[str, int], frozenset[int]]
    cpis: dict[tuple[str, int, str, str], float | None]
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
    day_index: int,
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
        slices[category] = EvalSlice(
            category=category,
            day=day_index,
            true_labels=labels[keep],
            probabilities=probs[keep],
        )
    return slices


def _slice_records(
    strategy: str, bootstrap: int, day: int, slices: dict[str, EvalSlice | None]
) -> list[MetricRecord]:
    records = []
    for category in EVAL_CATEGORIES:
        if category not in slices:
            continue  # category absent (no_al has no train slice)
        s = slices[category]
        for metric in PERFORMANCE_METRICS:
            if s is None:
                value = None
            else:
                try:
                    value = float(compute_metric(s, metric))
                except UndefinedMetricError:
                    value = None
            records.append(MetricRecord(strategy, bootstrap, day, category, metric, value))
    return records


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

    records: list[MetricRecord] = []
    events: list[tuple[int, int]] = []
    history: dict[int, list[int]] = {}

    for t in range(initial, dataset.day_count - 1):
        frame = frames[t]
        next_frame = frames[t + 1]
        current = forward(params, adj, frame.features)

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
                events.append((frame.day_index, v))
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
            frame.day_index,
            frame.labels,
            next_frame.labels,
            evaluated.probabilities,
            upcoming.probabilities,
        )
        records.extend(
            _slice_records(strategy, bootstrap, frame.day_index, slices)
        )

    if trained & holdout_set:
        raise AssertionError("holdout node entered the labeled buffer")
    log = QueryLog.from_events(split.pool, events)
    return UnitResult(
        strategy=strategy,
        bootstrap=bootstrap,
        split=split,
        records=records,
        query_log=log,
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


def compute_cpis(
    records: list[MetricRecord],
) -> dict[tuple[str, int, str, str], float | None]:
    """Per (strategy, bootstrap, category, metric) CPI over the defined day series.

    Undefined (None) when fewer than two days are defined or the defined
    days are not uniformly spaced.
    """
    series: dict[tuple[str, int, str, str], list[tuple[int, float]]] = {}
    seen: dict[tuple[str, int, str, str], None] = {}
    for r in records:
        key = (r.strategy, r.bootstrap, r.category, r.metric)
        seen.setdefault(key, None)
        if r.value is not None:
            series.setdefault(key, []).append((r.day, r.value))
    out: dict[tuple[str, int, str, str], float | None] = {}
    for key in seen:
        points = sorted(series.get(key, []))
        value: float | None = None
        if len(points) >= 2:
            days = tuple(d for d, _ in points)
            gaps = np.diff(days)
            if (gaps == gaps[0]).all():
                value = cpi(
                    PerformanceSeries(key[3], days, np.array([v for _, v in points]))
                )
        out[key] = value
    return out


def aggregate_records(
    records: list[MetricRecord],
    cpis: dict[tuple[str, int, str, str], float | None],
) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    """Mean and population std across bootstraps.

    Plain metrics are first averaged over each bootstrap's defined days;
    CPI metrics use the per-bootstrap CPI values directly and appear under
    ``cpi_<metric>``.
    """
    per_bootstrap: dict[tuple[str, str, str], dict[int, list[float]]] = {}
    for r in records:
        if r.value is None:
            continue
        key = (r.strategy, r.category, r.metric)
        per_bootstrap.setdefault(key, {}).setdefault(r.bootstrap, []).append(r.value)

    out: dict[tuple[str, str, str], tuple[float, float, int]] = {}
    for key in sorted(per_bootstrap):
        values = [
            float(np.mean(day_values))
            for _, day_values in sorted(per_bootstrap[key].items())
        ]
        arr = np.array(values)
        out[key] = (float(arr.mean()), float(arr.std()), len(values))

    cpi_values: dict[tuple[str, str, str], dict[int, float]] = {}
    for (strategy, bootstrap, category, metric), value in cpis.items():
        if value is None:
            continue
        key = (strategy, category, f"cpi_{metric}")
        cpi_values.setdefault(key, {})[bootstrap] = value
    for key in sorted(cpi_values):
        arr = np.array([v for _, v in sorted(cpi_values[key].items())])
        out[key] = (float(arr.mean()), float(arr.std()), arr.size)
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

    records: list[MetricRecord] = []
    query_logs: dict[tuple[str, int], QueryLog] = {}
    trained_nodes: dict[tuple[str, int], frozenset[int]] = {}
    splits: dict[int, Split] = {}
    failures: list[tuple[str, int, str]] = []
    for strategy, bootstrap, unit, error in outcomes:
        if unit is None:
            failures.append((strategy, bootstrap, error))
            continue
        records.extend(unit.records)
        query_logs[(strategy, bootstrap)] = unit.query_log
        trained_nodes[(strategy, bootstrap)] = unit.trained_nodes
        splits[bootstrap] = unit.split

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
