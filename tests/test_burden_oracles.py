"""The burden suite's summary arrays against their per-node loop references.

``QueryLog`` summarises a log once and every burden measure reads that
summary; ``burden_oracles`` rebuilds each node's gaps wherever it needs
them. The tests require the same bits, or the same error, on every log.
The report's correlations, which prepare each centrality's side once per
node set and each burden side once for every centrality, are held to the
oracle's bits cell by cell.
"""

from types import SimpleNamespace

import numpy as np
from burden_oracles import (
    oracle_average_time_gap,
    oracle_burden_quantity,
    oracle_centrality_burden_correlation,
    oracle_gaps,
    oracle_log_error,
    oracle_mean_normalized_centrality,
    oracle_over_exertion,
    oracle_query_counts,
    oracle_sampling_entropy,
    oracle_within_gap_percentage,
)
from graph_oracles import random_graph
from metric_oracles import oracle_fmt

from galstream import (
    CENTRALITY_METRICS,
    QueryLog,
    average_time_gap,
    centrality_burden_correlation,
    mean_normalized_centrality,
    over_exertion,
    sampling_entropy,
    within_gap_percentage,
)
from galstream import reports
from galstream.burden import BURDEN_QUANTITIES, CORRELATION_METHODS, burden_quantity
from galstream.exceptions import ConvergenceError

THRESHOLDS = range(0, 8)


def _logs(rng):
    """Seeded logs: empty ones, single-query-only ones and pools with unqueried nodes."""
    yield QueryLog(tuple(range(6)), {})
    yield QueryLog((), {})
    for i in range(240):
        n = int(rng.integers(1, 25))
        pool = sorted(rng.choice(2 * n, size=n, replace=False).tolist())
        sampled = rng.choice(pool, size=int(rng.integers(0, n + 1)), replace=False)
        span = int(rng.integers(1, 40))
        most = 1 if i % 4 == 0 else span  # every fourth log queries each node once
        days = {}
        for node in sampled:
            size = int(rng.integers(1, min(most, 8) + 1))
            days[int(node)] = sorted(rng.choice(span, size=size, replace=False).tolist())
        yield QueryLog(tuple(pool), days)


def _outcome(fn, *args):
    """The value's bits, or the error's type and message."""
    try:
        value = fn(*args)
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):  # a mean_normalized_centrality table
        return {
            name: {m: v if v is None else v.hex() for m, v in row.items()}
            for name, row in value.items()
        }
    if isinstance(value, tuple):  # burden_quantity arrays
        return tuple((a.dtype.kind, a.tobytes()) for a in value)
    raise AssertionError(f"unexpected result {value!r}")


def _oracle_quantity_arrays(log, quantity):
    burden = oracle_burden_quantity(log, quantity)
    nodes = sorted(burden)
    return np.array(nodes, dtype=np.intp), np.array([burden[n] for n in nodes])


def test_summary_arrays_match_loop_reference():
    rng = np.random.default_rng(808)
    kinds = {"empty": 0, "single_only": 0, "unqueried": 0}
    for log in _logs(rng):
        counts = {n: c for n, c in oracle_query_counts(log).items() if c}
        gaps = {n: g for n in log.days_by_node if (g := oracle_gaps(log, n))}
        assert log.sampled.tolist() == list(counts)
        assert log.counts.tolist() == list(counts.values())
        assert log.total_queries == sum(counts.values())
        assert log.requeried.tolist() == list(gaps)
        assert log.min_gaps.tolist() == [min(g) for g in gaps.values()]
        want = np.array([float(np.mean(g)) for g in gaps.values()])
        assert log.mean_gaps.tobytes() == want.tobytes()
        kinds["empty"] += not counts
        kinds["single_only"] += bool(counts) and not gaps
        kinds["unqueried"] += len(counts) < len(log.pool)
    assert all(count >= 10 for count in kinds.values()), kinds


def _summary(log):
    arrays = (log.sampled, log.counts, log.requeried, log.min_gaps, log.mean_gaps)
    return log.pool, log.days_by_node, log.total_queries, [(a.dtype, a.tobytes()) for a in arrays]


def _error(build, *args):
    try:
        build(*args)
    except ValueError as exc:
        return str(exc)
    return None


def test_every_construction_path_gives_the_same_log():
    rng = np.random.default_rng(707)
    for log in _logs(rng):
        events = [(day, node) for node, days in log.days_by_node.items() for day in days]
        rng.shuffle(events)
        array = np.array(events, dtype=np.int64).reshape(-1, 2)
        for built in (
            QueryLog.from_events(log.pool, events),
            QueryLog.from_events(frozenset(log.pool), array),
            QueryLog(list(reversed(log.pool)), dict(reversed(log.days_by_node.items()))),
        ):
            assert _summary(built) == _summary(log)


def test_construction_errors_match_node_walk():
    rng = np.random.default_rng(708)
    raised = set()
    for _ in range(600):
        pool = sorted(rng.choice(30, size=int(rng.integers(1, 12)), replace=False).tolist())
        days_by_node = {}
        for node in rng.choice(32, size=int(rng.integers(0, 6)), replace=False).tolist():
            if rng.random() < 0.8:
                node = int(rng.choice(pool))
            days = rng.integers(0, 9, size=int(rng.integers(0, 5))).tolist()
            if rng.random() < 0.7:
                days = sorted(set(days))
            days_by_node[node] = tuple(days)
        want = oracle_log_error(pool, days_by_node)
        assert _error(QueryLog, pool, days_by_node) == want, days_by_node
        events = [(day, node) for node, days in days_by_node.items() for day in days]
        sorted_days = {node: tuple(sorted(days)) for node, days in days_by_node.items() if days}
        want = oracle_log_error(pool, sorted_days)
        assert _error(QueryLog.from_events, pool, events) == want, events
        raised.add(want and want.split()[0])
    assert raised == {None, "queried", "query"}


def test_per_log_measures_match_loop_reference():
    rng = np.random.default_rng(909)
    checked = 0
    for log in _logs(rng):
        pairs = [
            (sampling_entropy, oracle_sampling_entropy, ()),
            (average_time_gap, oracle_average_time_gap, ()),
        ]
        for t in THRESHOLDS:
            pairs.append((within_gap_percentage, oracle_within_gap_percentage, (t,)))
            pairs.append((over_exertion, oracle_over_exertion, (t,)))
        for quantity in BURDEN_QUANTITIES + ("max_gap",):
            pairs.append((burden_quantity, _oracle_quantity_arrays, (quantity,)))
        for fn, oracle, args in pairs:
            assert _outcome(fn, log, *args) == _outcome(oracle, log, *args), (fn.__name__, args)
        checked += 1
    assert checked >= 200


def test_graph_measures_match_loop_reference():
    rng = np.random.default_rng(1010)
    logs = list(_logs(rng))
    for start in range(0, len(logs), 6):
        batch = logs[start : start + 6]
        n = max((max(log.pool) + 1 for log in batch if log.pool), default=1)
        g = random_graph(rng, n + int(rng.integers(0, 4)), float(rng.uniform(0.05, 0.5)))
        named = {str(i): log for i, log in enumerate(batch)}
        assert _outcome(mean_normalized_centrality, named, g) == _outcome(
            oracle_mean_normalized_centrality, named, g
        )
        for log in batch:
            for metric in CENTRALITY_METRICS:
                for quantity in BURDEN_QUANTITIES:
                    for method in CORRELATION_METHODS:
                        args = (log, g, metric, quantity, method)
                        got = _outcome(centrality_burden_correlation, *args)
                        want = _outcome(oracle_centrality_burden_correlation, *args)
                        assert got == want, (metric, quantity, method)


def test_report_correlations_match_loop_reference():
    rng = np.random.default_rng(1111)
    logs = list(_logs(rng))[:70]
    logs.append(QueryLog(tuple(range(10)), {1: (1, 3), 2: (2, 5), 3: (4,)}))  # 2 re-queried
    assert any(log.total_queries == 0 for log in logs)  # as a no_al log is
    strategies = tuple(f"s{i}" for i in range(8))
    per_strategy = {s: logs[i::8] for i, s in enumerate(strategies)}
    config = SimpleNamespace(strategies=strategies)
    for connected in (False, True):
        g = random_graph(rng, 50, 0.08, connected=connected)
        got = list(reports._correlation_rows(config, per_strategy, SimpleNamespace(graph=g)))
        want = [
            (strategy, metric, quantity, method, *reports._over_logs(
                lambda log: oracle_centrality_burden_correlation(log, g, metric, quantity, method),
                per_strategy[strategy],
            ))
            for strategy in strategies
            for metric in CENTRALITY_METRICS
            for quantity in BURDEN_QUANTITIES
            for method in CORRELATION_METHODS
        ]
        assert [list(map(oracle_fmt, row)) for row in got] == [
            list(map(oracle_fmt, row)) for row in want
        ]
        assert any(row[-1] == 0 for row in want) and any(row[-1] > 0 for row in want)
