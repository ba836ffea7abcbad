"""Day-level stream simulation: query, retrain, evaluate, aggregate.

One work unit is a (strategy, bootstrap) pair. Units are pure functions of
(dataset, config, strategy, bootstrap), each with its own derived seeds, so
serial and parallel execution produce identical results and a failing unit
aborts only itself. A serial run calls :func:`run_unit` unit by unit. On a
pool each task is a lockstep group of one bootstrap's strategies whose
training requests are trained together, in stacks, by ``gcn.train_stack``;
every unit keeps the bits it gets alone.

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
from .gcn import (
    MISSING_LABEL,
    build_normalized_adjacency,
    embed,
    forward,
    train,
    train_stack,
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
    return load_dataset(config.edges_path, config.features_path, config.labels_path)


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
) -> dict[str, tuple[np.ndarray, np.ndarray] | None]:
    """The four node-category slices for one day, each its (labels, probabilities) pair;
    missing-label nodes drop out.

    ``split`` is a :class:`Split` or any pair of ``holdout`` and ``pool`` node
    sequences; a unit passes int arrays, converted once, which are not copied.

    A category maps to None when its node set is empty after exclusions
    (the undefined marker). ``train_next_day`` is absent entirely when
    nothing was queried. :func:`_slice_records` scores the slices.
    """
    chosen_nodes = np.array(chosen, dtype=int)
    queried = np.zeros(len(labels_now), dtype=bool)
    queried[chosen_nodes] = True
    pool = np.asarray(split.pool, dtype=int)
    unqueried = pool[~queried[pool]]
    plan = [
        ("test_set_same_day", np.asarray(split.holdout, dtype=int), labels_now, probs_now),
        ("unqueried_same_day", unqueried, labels_now, probs_now),
        ("unqueried_next_day", unqueried, labels_next, probs_next),
    ]
    if chosen:
        plan.append(("train_next_day", chosen_nodes, labels_next, probs_next))
    slices: dict[str, tuple[np.ndarray, np.ndarray] | None] = {}
    for category, nodes, labels, probs in plan:
        keep = nodes[labels[nodes] != MISSING_LABEL]
        slices[category] = (labels[keep], probs[keep]) if keep.size else None
    return slices


def _slice_records(
    values: np.ndarray, days: list[dict[str, tuple[np.ndarray, np.ndarray] | None]]
) -> None:
    """Score a unit's day slices into its NaN-filled (day, category, metric) block;
    undefined stays NaN.

    The slices of one size are packed as the rows of one :class:`EvalSlice` and
    scored in one ``compute_metric`` call per metric; each value keeps the bits
    of scoring its slice alone.
    """
    by_size: dict[int, list] = {}
    for d, slices in enumerate(days):
        for category, s in slices.items():
            if s is not None:  # an empty slice leaves every metric undefined
                by_size.setdefault(len(s[0]), []).append((d, EVAL_CATEGORIES.index(category), *s))
    for group in by_size.values():
        d, c, labels, probs = zip(*group)
        packed = EvalSlice(np.stack(labels), np.stack(probs))
        values[d, c] = np.column_stack([compute_metric(packed, m) for m in PERFORMANCE_METRICS])


# ---------------------------------------------------------------------------
# One (strategy, bootstrap) unit
# ---------------------------------------------------------------------------


class _SplitNodes(NamedTuple):
    """A unit's split as int arrays, converted once for :func:`build_eval_slices`."""

    holdout: np.ndarray
    pool: np.ndarray


def _unit_days(dataset: Dataset, config: ExperimentConfig, strategy: str, bootstrap: int, adj):
    """The day loop of one unit, as a generator.

    It yields each training request, ``(init seed, labelled buffer)``, is sent
    the trained :class:`GcnParams` back, and returns the :class:`UnitResult`.
    A unit's model is pure in (seed, buffer), so whoever trains a request,
    alone or stacked with other units', the unit's result keeps its bits.
    """
    split = make_split(dataset, config.holdout_fraction, config.base_seed + bootstrap)
    holdout_set = set(split.holdout)
    split_nodes = _SplitNodes(np.array(split.holdout, dtype=int), np.array(split.pool, dtype=int))
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
    params = yield init_seed, buffer

    history: dict[int, list[int]] = {}
    day_slices = []

    current = forward(params, adj, frames[initial].features)
    for t in range(initial, dataset.day_count - 1):
        frame, next_frame = frames[t], frames[t + 1]
        if config.embedding_mode == "model_based":
            embeddings = current.hidden
        else:
            embeddings = embed(adj, frame.features)
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
            params = yield init_seed, buffer
            current = forward(params, adj, frame.features)

        upcoming = forward(params, adj, next_frame.features)
        day_slices.append(
            build_eval_slices(
                split_nodes,
                chosen,
                frame.labels,
                next_frame.labels,
                current.probabilities,
                upcoming.probabilities,
            )
        )
        current = upcoming  # the next day starts from these parameters and features

    values = np.full((len(day_slices), len(EVAL_CATEGORIES), len(PERFORMANCE_METRICS)), np.nan)
    _slice_records(values, day_slices)  # every day at once, its slices packed by size

    return UnitResult(
        split=split,
        values=values,
        query_log=QueryLog(split.pool, history),
        trained_nodes=frozenset(trained),
    )


def _resume(days, params=None):
    """Run a unit's day loop on to its next training request, or to its result."""
    try:
        return days.send(params)  # sending None starts the loop
    except StopIteration as done:
        return done.value


def run_unit(
    dataset: Dataset, config: ExperimentConfig, strategy: str, bootstrap: int
) -> UnitResult:
    """One unit on its own: its day loop, with one ``train`` call per request."""
    adj = build_normalized_adjacency(dataset.graph)
    hyper = config.train_config()
    days = _unit_days(dataset, config, strategy, bootstrap, adj)
    step = _resume(days)
    while not isinstance(step, UnitResult):
        seed, buffer = step
        step = _resume(days, train(seed, adj, buffer, hyper))
    return step


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _execute_unit(args) -> tuple[str, int, UnitResult | None, str | None]:
    dataset, config, strategy, bootstrap = args
    try:
        return strategy, bootstrap, run_unit(dataset, config, strategy, bootstrap), None
    except Exception as exc:  # a failing bootstrap aborts only itself
        return strategy, bootstrap, None, _failure(exc)


# ---------------------------------------------------------------------------
# Lockstep groups of one bootstrap's units
# ---------------------------------------------------------------------------

# Most learning units (every strategy but no_al) in one group. Stacking pays
# while a stack is small: at 40 nodes and 200 epochs (2 vCPUs, one BLAS
# thread) 3 and 6 units trained 1.4-1.5x as fast as one at a time, 12 only 1.15x.
GROUP_LEARNERS = 6


def strategy_groups(
    strategies: tuple[str, ...], bootstraps: int, workers: int
) -> list[tuple[str, ...]]:
    """Split one bootstrap's strategies into near-equal lockstep groups.

    A group holds at most :data:`GROUP_LEARNERS` learning units, and a
    bootstrap gets at least ``ceil(workers / bootstraps)`` groups, so that a
    run of fewer bootstraps than workers still fills every worker. no_al
    trains only its initial model, so it joins the group with fewest learners.
    """
    learners = [s for s in strategies if s != "no_al"]
    count = max(-(-len(learners) // GROUP_LEARNERS), -(-workers // bootstraps))
    count = min(count, len(strategies))
    ordered = learners + [s for s in strategies if s == "no_al"]
    return [tuple(ordered[i::count]) for i in range(count)]


def _stacks(requests: dict[str, tuple]) -> list[list[str]]:
    """The units whose requests train as one stack: those of one example count."""
    stacks: dict[int, list[str]] = {}
    for strategy, (_, buffer) in requests.items():
        stacks.setdefault(len(buffer), []).append(strategy)
    return list(stacks.values())


def _execute_group(args) -> list[tuple[str, int, UnitResult | None, str | None]]:
    """Run one bootstrap's units in lockstep, as ``_execute_unit`` runs each alone.

    Each round takes every live unit's next training request and trains them
    in stacks (see :func:`_stacks`). A unit that raises, in its day loop or
    in its training, fails alone with the message it fails with alone; the
    other units' results keep their bits.
    """
    dataset, config, strategies, bootstrap = args
    adj = build_normalized_adjacency(dataset.graph)
    hyper = config.train_config()
    outcomes: dict[str, tuple[UnitResult | None, str | None]] = {}
    waiting: dict[str, tuple] = {}  # unit -> (its day loop, its training request)

    def resume(strategy, days, params=None) -> None:
        try:
            step = _resume(days, params)
        except Exception as exc:  # a failing unit aborts only itself
            outcomes[strategy] = None, _failure(exc)
            return
        if isinstance(step, UnitResult):
            outcomes[strategy] = step, None
        else:
            waiting[strategy] = days, step

    for strategy in strategies:
        resume(strategy, _unit_days(dataset, config, strategy, bootstrap, adj))
    while waiting:
        round_, waiting = waiting, {}
        requests = {strategy: request for strategy, (_, request) in round_.items()}
        for stack in _stacks(requests):
            trained = train_stack(adj, [requests[s] for s in stack], hyper)
            for strategy, params in zip(stack, trained):
                if isinstance(params, Exception):
                    outcomes[strategy] = None, _failure(params)
                else:
                    resume(strategy, round_[strategy][0], params)
    return [(strategy, bootstrap, *outcomes[strategy]) for strategy in strategies]


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
    if config.workers > 1:  # each pool task is one lockstep group
        groups = strategy_groups(config.strategies, config.bootstraps, config.workers)
        tasks = [(dataset, config, g, b) for b in range(config.bootstraps) for g in groups]
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            done = {
                (s, b): outcome
                for group in pool.map(_execute_group, tasks, chunksize=1)
                for s, b, *outcome in group
            }
        outcomes = [(s, b, *done[s, b]) for _, _, s, b in units]
    else:  # one unit at a time, each through run_unit
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
