"""Day-level stream simulation: query, retrain, evaluate, aggregate.

One work unit is a (strategy, bootstrap) pair. Units are pure functions of
(dataset, config, strategy, bootstrap), each with its own derived seeds, so
serial and parallel execution produce identical results and a failing unit
aborts only itself.

A run's daily metric values live in one :class:`DailyTable`, a dense grid
with a fixed cell per (strategy, bootstrap, query day, category, metric);
each series is a day-ordered row of it, which every derived report reads.
:func:`compute_cpis` takes every row's CPI in one pass over rows packed by
their count of defined days and keeps a group's defined CPIs as a list.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import product, repeat
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
    compute_metric,
    cpi,  # noqa: F401 - bound only for perfbench/spans.py, which traces this name here
    cpi_rows,
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


def scored_categories(strategy: str) -> tuple[str, ...]:
    """The categories a unit of ``strategy`` scores each day; no_al queries nothing, so no train."""
    return tuple(c for c in EVAL_CATEGORIES if c != "train_next_day" or strategy != "no_al")


def query_days(config: ExperimentConfig, dataset: Dataset) -> tuple[int, ...]:
    """The day index of every scored day: each day after the initial window but the last."""
    return tuple(frame.day_index for frame in dataset.days[config.initial_days : -1])


class DailyTable:
    """Every daily value of a run in one dense grid; NaN where undefined.

    ``values[s, b, d, c, m]`` belongs to ``strategies[s]``, bootstrap ``b``,
    query day ``days[d]``, ``EVAL_CATEGORIES[c]`` and ``PERFORMANCE_METRICS[m]``.
    ``exists`` marks the cells a run writes: those of every unit not listed in
    ``failed``, in the categories :func:`scored_categories` gives its
    strategy. Iterating walks them in (strategy, bootstrap, day, category,
    metric) order and yields :class:`MetricRecord` rows.
    """

    def __init__(self, config: ExperimentConfig, days: tuple[int, ...], failed=frozenset()) -> None:
        self.strategies, self.days = config.strategies, np.array(days, dtype=np.int64)
        # units[s, b]: whether (strategy, bootstrap) is a unit of the run
        self.units = np.array(
            [[(s, b) not in failed for b in range(config.bootstraps)] for s in self.strategies]
        )
        scored = [[c in scored_categories(s) for c in EVAL_CATEGORIES] for s in self.strategies]
        shape = (*self.units.shape, self.days.size, len(EVAL_CATEGORIES), len(PERFORMANCE_METRICS))
        self.values = np.full(shape, np.nan)
        exists = self.units[:, :, None, None] & np.array(scored)[:, None, None, :]
        self.exists = np.broadcast_to(exists[..., None], shape)
        # each (strategy, category, metric) group, in the order of series()
        self.keys = list(product(self.strategies, EVAL_CATEGORIES, PERFORMANCE_METRICS))

    def describe(self, cell) -> str:
        """A cell by name: the metric of (strategy, bootstrap, day) in its category."""
        s, b, d, c, m = cell
        unit = f"{self.strategies[s]} bootstrap {b} on day {self.days[d]}"
        return f"the {PERFORMANCE_METRICS[m]} of {unit} in {EVAL_CATEGORIES[c]}"

    def __len__(self) -> int:
        return int(np.count_nonzero(self.exists))

    def __iter__(self):
        # one strategy's cells at a time, so a walk never holds the whole run as objects
        for strategy, exists, values in zip(self.strategies, self.exists, self.values):
            b, d, c, m = np.nonzero(exists)
            v = values[exists]
            columns = [
                repeat(strategy),
                b.tolist(),
                self.days[d].tolist(),
                [EVAL_CATEGORIES[i] for i in c.tolist()],
                [PERFORMANCE_METRICS[i] for i in m.tolist()],
                np.where(np.isnan(v), None, v).tolist(),
            ]
            yield from map(MetricRecord._make, zip(*columns))

    def columns(self) -> list:
        """The cells a run writes, in iteration order, one column per :class:`MetricRecord`
        field: each name column as (names, each cell's index into them), bootstrap and
        day as ints, and the values, NaN where undefined."""
        s, b, d, c, m = np.nonzero(self.exists)
        return [
            (self.strategies, s),
            b,
            self.days[d],
            (EVAL_CATEGORIES, c),
            (PERFORMANCE_METRICS, m),
            self.values[self.exists],
        ]

    def __eq__(self, other) -> bool:
        return isinstance(other, DailyTable) and list(self) == list(other)

    def series(self) -> np.ndarray:
        """Every series as a (group, bootstrap, day) array, its groups in ``keys`` order.

        A bootstrap the group's strategy did not run or does not score
        leaves its row undefined.
        """
        grid = np.moveaxis(self.values, (1, 2), (3, 4))
        return grid.reshape(len(self.keys), *self.values.shape[1:3])


def _packed_rows(values: np.ndarray):
    """Each count ``k`` of defined (non-NaN) values in the rows of a matrix, with its rows:
    their indices, a mask of their defined cells in the matrix, and their defined
    values packed into one C-contiguous (rows, k) matrix."""
    defined = ~np.isnan(values)
    counts = np.count_nonzero(defined, axis=1)
    for k in np.unique(counts[counts > 0]).tolist():
        rows = counts == k
        cells = defined & rows[:, None]
        yield np.flatnonzero(rows), cells, values[cells].reshape(-1, k)


def row_means(values: np.ndarray) -> np.ndarray:
    """Each row's mean over its defined (non-NaN) values, along the last axis; NaN where none is.

    Rows with the same count of defined values are packed into one
    C-contiguous matrix and reduced along its rows, which sums each row as
    ``np.mean`` sums it on its own, so every mean keeps its bits.
    """
    rows = np.reshape(values, (-1, np.shape(values)[-1]))
    out = np.full(rows.shape[0], np.nan)
    for group, _, packed in _packed_rows(rows):
        out[group] = packed.mean(axis=1)
    return out.reshape(np.shape(values)[:-1])


@dataclass
class UnitResult:
    split: Split
    values: np.ndarray  # the unit's (day, category, metric) block of a DailyTable
    query_log: QueryLog
    trained_nodes: frozenset[int]


@dataclass
class RunResult:
    config: ExperimentConfig
    records: DailyTable
    query_logs: dict[tuple[str, int], QueryLog]
    splits: dict[int, Split]
    trained_nodes: dict[tuple[str, int], frozenset[int]]
    cpis: dict[tuple[str, str, str], list[float]]
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
    queried = np.zeros(len(labels_now), dtype=bool)
    queried[list(chosen)] = True
    pool = np.array(split.pool, dtype=int)
    unqueried = pool[~queried[pool]]
    plan = [
        ("test_set_same_day", np.array(split.holdout, dtype=int), labels_now, probs_now),
        ("unqueried_same_day", unqueried, labels_now, probs_now),
        ("unqueried_next_day", unqueried, labels_next, probs_next),
    ]
    if chosen:
        plan.append(("train_next_day", np.array(chosen, dtype=int), labels_next, probs_next))
    slices: dict[str, EvalSlice | None] = {}
    for category, nodes, labels, probs in plan:
        keep = nodes[labels[nodes] != MISSING_LABEL]
        slices[category] = EvalSlice(labels[keep], probs[keep]) if keep.size else None
    return slices


def _slice_records(block: np.ndarray, slices: dict[str, EvalSlice | None]) -> None:
    """Score one day's slices into its NaN-filled (category, metric) block; undefined stays NaN."""
    for category, s in slices.items():
        if s is None:
            continue  # an empty slice leaves every metric undefined
        c = EVAL_CATEGORIES.index(category)
        for m, metric in enumerate(PERFORMANCE_METRICS):
            try:
                block[c, m] = compute_metric(s, metric)
            except UndefinedMetricError:
                pass


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

    def learn(frame, nodes) -> bool:  # buffer the labelled nodes; whether there were any
        mask = [v for v in nodes if frame.labels[v] != MISSING_LABEL]
        if holdout_set.intersection(mask):
            raise AssertionError("holdout node entered the labeled buffer")
        if mask:
            buffer.append((frame.features, frame.labels, mask))
            trained.update(mask)
        return bool(mask)

    for frame in frames[:initial]:
        learn(frame, split.pool)
    if not buffer:
        raise RuntimeError("no labeled pool nodes in the initial training window")
    params = train(init_seed, adj, buffer, hyper)

    values = np.full(
        (dataset.day_count - 1 - initial, len(EVAL_CATEGORIES), len(PERFORMANCE_METRICS)), np.nan
    )
    history: dict[int, list[int]] = {}

    current = forward(params, adj, frames[initial].features)
    for t in range(initial, dataset.day_count - 1):
        frame, next_frame = frames[t], frames[t + 1]
        if config.embedding_mode == "model_based":
            embeddings = current.hidden
        else:
            embeddings = embed("direct", None, adj, frame.features)
        ctx = SelectionContext(
            graph=dataset.graph,
            adj=adj,
            features=frame.features,
            embeddings=embeddings,
            probabilities=current.probabilities,
            pool=split.pool,
            history={n: tuple(d) for n, d in history.items()},
            k=config.queries_per_day,
            rng_seed=unit_seed(config.base_seed, strategy, bootstrap, t),
        )
        chosen = select(strategy, ctx).chosen
        if holdout_set.intersection(chosen):
            raise AssertionError("holdout node selected for querying")
        for v in chosen:
            history.setdefault(v, []).append(frame.day_index)
        if learn(frame, chosen):  # train is pure in (seed, buffer): no new label, no change
            params = train(init_seed, adj, buffer, hyper)
            current = forward(params, adj, frame.features)

        upcoming = forward(params, adj, next_frame.features)
        slices = build_eval_slices(
            split,
            chosen,
            frame.labels,
            next_frame.labels,
            current.probabilities,
            upcoming.probabilities,
        )
        _slice_records(values[t - initial], slices)
        current = upcoming  # the next day starts from these parameters and features

    return UnitResult(
        split=split,
        values=values,
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


def compute_cpis(table: DailyTable) -> dict[tuple[str, str, str], list[float]]:
    """Each (strategy, category, metric) group's defined CPIs, in bootstrap order.

    A series' CPI is taken over its defined days. It is undefined, and left
    out, when fewer than two days are defined or an undefined day sits
    between defined ones, so the defined days are not uniformly spaced.
    Series with the same count of defined days are packed, as in
    :func:`row_means`, and take their CPIs in one :func:`cpi_rows` call.
    """
    series = table.series()
    rows = series.reshape(-1, table.days.size)
    cpis = np.full(rows.shape[0], np.nan)
    for group, cells, packed in _packed_rows(rows):
        if packed.shape[1] > 1:  # no CPI of one day; rows of failed or unscored units have none
            days = np.broadcast_to(table.days, rows.shape)[cells].reshape(packed.shape)
            cpis[group] = cpi_rows(days, packed)
    cpis = cpis.reshape(series.shape[:2])
    return {key: row[~np.isnan(row)].tolist() for key, row in zip(table.keys, cpis)}


def mean_std_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, population std and count of each row's defined (non-NaN) values in a
    matrix, as three arrays; the mean and std are NaN for a row with none.

    Rows are packed by their count of defined values, as in :func:`row_means`,
    and each packed matrix is reduced along its rows, so every mean and std
    has the bits ``np.mean`` and ``np.std`` give that row's values alone.
    """
    rows = np.asarray(values, dtype=float)
    means, stds = np.full((2, rows.shape[0]), np.nan)
    for group, _, packed in _packed_rows(rows):
        means[group] = packed.mean(axis=1)
        stds[group] = packed.std(axis=1)
    return means, stds, np.count_nonzero(~np.isnan(rows), axis=1)


def aggregate_records(
    table: DailyTable,
    cpis: dict[tuple[str, str, str], list[float]],
) -> dict[tuple[str, str, str], tuple[float, float, int]]:
    """Mean and population std across bootstraps of each (strategy, category, metric).

    Plain metrics are first averaged over each bootstrap's defined days;
    CPI metrics use the per-bootstrap CPI values directly and appear under
    ``cpi_<metric>``.
    """
    defined = [cpis[key] for key in table.keys]
    padded = np.full((len(defined), max(map(len, defined), default=0)), np.nan)
    for row, values in zip(padded, defined):
        row[: len(values)] = values
    plain, cpi = (
        zip(*(column.tolist() for column in mean_std_rows(rows)))
        for rows in (row_means(table.series()), padded)
    )
    out: dict[tuple[str, str, str], tuple[float, float, int]] = {}
    for (strategy, category, metric), entry, cpi_entry in zip(table.keys, plain, cpi):
        if entry[2]:
            out[(strategy, category, metric)] = entry
        if cpi_entry[2]:
            out[(strategy, category, f"cpi_{metric}")] = cpi_entry
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

    failures = [(s, b, error) for s, b, unit, error in outcomes if unit is None]
    records = DailyTable(config, query_days(config, dataset), {f[:2] for f in failures})
    query_logs: dict[tuple[str, int], QueryLog] = {}
    trained_nodes: dict[tuple[str, int], frozenset[int]] = {}
    splits: dict[int, Split] = {}
    for strategy, bootstrap, unit, _ in outcomes:
        if unit is None:
            continue
        records.values[config.strategies.index(strategy), bootstrap] = unit.values
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
