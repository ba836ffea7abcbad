"""Loop references for the burden suite's per-node summary arrays.

These are the node-at-a-time versions of the burden routines: each walks
``QueryLog.days_by_node`` and rebuilds a node's gaps between consecutive
query days wherever it needs them. The library reads the summary arrays
``QueryLog`` computes once; the tests require equal results, not close
ones, because the arrays keep every value's arithmetic and order. The
correlation oracle ranks and centres both sides on every call, where the
library prepares each centrality's side once per node set and each burden
side once for every centrality. The log check and the ``queries.csv`` rows
walk a log's nodes one at a time, where the library reads its events as
arrays. Slow on purpose.
"""

import math

import numpy as np

from galstream.burden import BURDEN_QUANTITIES, CORRELATION_METHODS, normalized_centrality
from galstream.exceptions import ConvergenceError
from galstream.graphs import CENTRALITY_METRICS, centrality
from galstream.stats import average_ranks


def oracle_gaps(log, node):
    days = log.days_by_node.get(node, ())
    return tuple(b - a for a, b in zip(days, days[1:]))


def oracle_query_counts(log):
    """Queries per pool node (zero included)."""
    return {n: len(log.days_by_node.get(n, ())) for n in log.pool}


def oracle_sampling_entropy(log):
    if log.total_queries == 0:
        raise ValueError("sampling entropy is undefined for an empty log")
    h = 0.0
    for days in log.days_by_node.values():
        p = len(days) / log.total_queries
        h -= p * math.log(p)
    return h


def oracle_average_time_gap(log):
    per_node = [
        float(np.mean(gaps)) for node in log.days_by_node if (gaps := oracle_gaps(log, node))
    ]
    if not per_node:
        raise ValueError("no node was queried at least twice")
    return float(np.mean(per_node))


def oracle_within_gap_percentage(log, threshold_k):
    if threshold_k < 1:
        raise ValueError("threshold must be at least 1")
    qualifying = 0
    hits = 0
    for node in log.days_by_node:
        gaps = oracle_gaps(log, node)
        if not gaps:
            continue
        qualifying += 1
        if min(gaps) < threshold_k:
            hits += 1
    if qualifying == 0:
        raise ValueError("no node was queried at least twice")
    return hits / qualifying


def oracle_over_exertion(log, threshold):
    if len(log.days_by_node) == 0:
        raise ValueError("over-exertion is undefined for an empty log")
    exerted = sum(
        1
        for node in log.days_by_node
        if any(gap <= threshold for gap in oracle_gaps(log, node))
    )
    return exerted / len(log.days_by_node)


def oracle_burden_quantity(log, quantity):
    """Per-node burden values as a dict; nodes without gaps are omitted for gap quantities."""
    if quantity == "query_count":
        return {n: float(c) for n, c in oracle_query_counts(log).items()}
    if quantity not in BURDEN_QUANTITIES:
        raise ValueError(f"unknown burden quantity {quantity!r}")
    out = {}
    for node in log.days_by_node:
        gaps = oracle_gaps(log, node)
        if not gaps:
            continue
        out[node] = float(min(gaps)) if quantity == "min_gap" else float(np.mean(gaps))
    return out


def oracle_pearson(x, y):
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float((xc * xc).sum()))
    sy = math.sqrt(float((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined when either side has zero variance")
    return float((xc * yc).sum() / (sx * sy))


def oracle_centrality_burden_correlation(log, g, centrality_metric, quantity, method):
    if method not in CORRELATION_METHODS:
        raise ValueError(f"unknown correlation method {method!r}")
    values = centrality(g, centrality_metric).values
    burden = oracle_burden_quantity(log, quantity)
    nodes = sorted(burden)
    if len(nodes) < 3:
        raise ValueError("need at least three nodes with a defined burden quantity")
    x = values[nodes]
    y = np.array([burden[n] for n in nodes])
    if method == "spearman":
        x = average_ranks(x)
        y = average_ranks(y)
    return oracle_pearson(x, y)


def oracle_mean_normalized_centrality(logs, g):
    normalized = {}
    for m in CENTRALITY_METRICS:
        try:
            normalized[m] = normalized_centrality(g, m)
        except (ValueError, ConvergenceError):
            pass
    table = {}
    for name, log in logs.items():
        if log.total_queries == 0:
            table[name] = {m: None for m in CENTRALITY_METRICS}
            continue
        nodes = sorted(log.days_by_node)
        weights = np.array([len(log.days_by_node[n]) for n in nodes], dtype=float)
        weights /= weights.sum()
        table[name] = {
            m: float((normalized[m][nodes] * weights).sum()) if m in normalized else None
            for m in CENTRALITY_METRICS
        }
    return table


def oracle_log_error(pool, days_by_node):
    """The error a log of ``days_by_node`` raises, its nodes walked in ascending order;
    None if it is valid."""
    pool = set(int(v) for v in pool)
    for node, days in sorted(days_by_node.items()):
        if int(node) not in pool:
            return f"queried node {node} is not a pool node"
        if any(b <= a for a, b in zip(days, days[1:])):
            return f"query days for node {node} must strictly increase"
    return None


def oracle_query_rows(strategies, query_logs):
    """The rows of ``queries.csv``: each unit's (day, node) events in order, a unit at a time."""
    for strategy, bootstrap in sorted(query_logs, key=lambda k: (strategies.index(k[0]), k[1])):
        log = query_logs[(strategy, bootstrap)]
        events = sorted((day, node) for node, days in log.days_by_node.items() for day in days)
        for day, node in events:
            yield (strategy, bootstrap, day, node)
