"""Diversity and user-burden measurement over query logs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .exceptions import ConvergenceError
from .graphs import CENTRALITY_METRICS, Graph, centrality
from .stats import average_ranks

BURDEN_QUANTITIES = ("query_count", "min_gap", "mean_gap")
CORRELATION_METHODS = ("pearson", "spearman")


@dataclass(frozen=True)
class QueryLog:
    """Which pool nodes were queried on which days, summarised once in ascending node order."""

    pool: tuple[int, ...]
    days_by_node: Mapping[int, tuple[int, ...]]
    total_queries: int = field(init=False)
    # the queried nodes and their query counts
    sampled: np.ndarray = field(init=False, repr=False, compare=False)
    counts: np.ndarray = field(init=False, repr=False, compare=False)
    # the nodes queried at least twice, with their smallest and mean gap
    # between consecutive query days
    requeried: np.ndarray = field(init=False, repr=False, compare=False)
    min_gaps: np.ndarray = field(init=False, repr=False, compare=False)
    mean_gaps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pool = tuple(sorted(set(int(v) for v in self.pool)))
        pool_set = set(pool)
        by_node, min_gaps, mean_gaps = {}, [], []
        for node, days in sorted(self.days_by_node.items()):
            node = int(node)
            if node not in pool_set:
                raise ValueError(f"queried node {node} is not a pool node")
            days = tuple(int(d) for d in days)
            if len(days) > 1:
                min_gaps.append(min(b - a for a, b in zip(days, days[1:])))
                if min_gaps[-1] <= 0:
                    raise ValueError(f"query days for node {node} must strictly increase")
                mean_gaps.append((days[-1] - days[0]) / (len(days) - 1))
            if days:
                by_node[node] = days
        sampled = np.array(list(by_node), dtype=np.intp)
        counts = np.array([len(days) for days in by_node.values()], dtype=np.int64)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "days_by_node", by_node)
        object.__setattr__(self, "total_queries", int(counts.sum()))
        object.__setattr__(self, "sampled", sampled)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "requeried", sampled[counts > 1])
        object.__setattr__(self, "min_gaps", np.array(min_gaps, dtype=np.int64))
        object.__setattr__(self, "mean_gaps", np.array(mean_gaps, dtype=float))

    @classmethod
    def from_events(cls, pool: Iterable[int], events: Iterable[tuple[int, int]]) -> "QueryLog":
        """Build from (day, node) events; days need not arrive sorted."""
        by_node: dict[int, list[int]] = {}
        for day, node in events:
            by_node.setdefault(int(node), []).append(int(day))
        return cls(tuple(pool), {n: tuple(sorted(d)) for n, d in by_node.items()})

    @property
    def pool_size(self) -> int:
        return len(self.pool)


def sampling_entropy(log: QueryLog) -> float:
    """Shannon entropy (natural log) of the per-node query frequency distribution."""
    if log.total_queries == 0:
        raise ValueError("sampling entropy is undefined for an empty log")
    h = 0.0
    for p in (log.counts / log.total_queries).tolist():  # a pairwise sum changes the last bits
        h -= p * math.log(p)
    return h


def coverage_ratio(log: QueryLog) -> float:
    """Fraction of pool nodes queried at least once."""
    if log.pool_size == 0:
        raise ValueError("coverage ratio needs a nonempty pool")
    return log.sampled.size / log.pool_size


def average_time_gap(log: QueryLog) -> float:
    """Mean over re-queried nodes of their mean gap between consecutive queries."""
    if log.requeried.size == 0:
        raise ValueError("no node was queried at least twice")
    return float(np.mean(log.mean_gaps))


def within_gap_percentage(log: QueryLog, threshold_k: int) -> float:
    """Fraction of re-queried nodes whose smallest gap is below ``threshold_k``."""
    if threshold_k < 1:
        raise ValueError("threshold must be at least 1")
    if log.requeried.size == 0:
        raise ValueError("no node was queried at least twice")
    return int(np.count_nonzero(log.min_gaps < threshold_k)) / log.requeried.size


def over_exertion(log: QueryLog, threshold: int) -> float:
    """Fraction of sampled nodes re-queried within ``threshold`` days at least once."""
    if log.sampled.size == 0:
        raise ValueError("over-exertion is undefined for an empty log")
    return int(np.count_nonzero(log.min_gaps <= threshold)) / log.sampled.size


# ---------------------------------------------------------------------------
# Centrality / burden analyses
# ---------------------------------------------------------------------------


def _centred(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``v`` minus its mean, and the root of its sum of squares."""
    vc = v - v.mean()
    return vc, math.sqrt(float((vc * vc).sum()))


def _correlate(x: tuple[np.ndarray, float], y: tuple[np.ndarray, float]) -> float:
    """Pearson correlation of two :func:`_centred` sides."""
    (xc, sx), (yc, sy) = x, y
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined when either side has zero variance")
    return float((xc * yc).sum() / (sx * sy))


def _side(v: np.ndarray, method: str) -> tuple[np.ndarray, float]:
    """One side of a correlation: ranked for Spearman, then centred."""
    return _centred(average_ranks(v) if method == "spearman" else v)


def burden_quantity(log: QueryLog, quantity: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and their values: the whole pool for counts, re-queried nodes for gaps."""
    if quantity == "query_count":
        nodes = np.array(log.pool, dtype=np.intp)
        values = np.zeros(nodes.size)
        values[np.searchsorted(nodes, log.sampled)] = log.counts
        return nodes, values
    if quantity == "min_gap":
        return log.requeried, log.min_gaps.astype(float)
    if quantity == "mean_gap":
        return log.requeried, log.mean_gaps
    raise ValueError(f"unknown burden quantity {quantity!r}")


def _correlated_nodes(log: QueryLog, quantity: str) -> tuple[np.ndarray, np.ndarray]:
    nodes, y = burden_quantity(log, quantity)
    if nodes.size < 3:
        raise ValueError("need at least three nodes with a defined burden quantity")
    return nodes, y


def centrality_burden_correlation(
    log: QueryLog,
    g: Graph,
    centrality_metric: str,
    quantity: str = "query_count",
    method: str = "pearson",
) -> float:
    """Correlation between a centrality and a per-node burden quantity over the pool."""
    if method not in CORRELATION_METHODS:
        raise ValueError(f"unknown correlation method {method!r}")
    values = centrality(g, centrality_metric).values
    nodes, y = _correlated_nodes(log, quantity)
    return _correlate(_side(values[nodes], method), _side(y, method))


def centrality_burden_correlations(
    log: QueryLog, g: Graph
) -> dict[tuple[str, str, str], float]:
    """Each defined correlation of ``log``, keyed (centrality, quantity, method).

    Every value has the bits of its :func:`centrality_burden_correlation`
    call. Each quantity's burden side, ranked for Spearman and centred, is
    prepared once and shared by every centrality.
    """
    centralities = {}
    for metric in CENTRALITY_METRICS:
        try:
            centralities[metric] = centrality(g, metric).values
        except (ValueError, ConvergenceError):
            pass
    out = {}
    for quantity in BURDEN_QUANTITIES:
        try:
            nodes, y = _correlated_nodes(log, quantity)
        except ValueError:
            continue
        sides = {method: _side(y, method) for method in CORRELATION_METHODS}
        for metric, values in centralities.items():
            for method in CORRELATION_METHODS:
                try:
                    out[metric, quantity, method] = _correlate(
                        _side(values[nodes], method), sides[method]
                    )
                except ValueError:
                    pass
    return out


def normalized_centrality(g: Graph, metric: str) -> np.ndarray:
    """Min-max normalized centrality over all nodes; constant vectors map to zeros."""
    values = centrality(g, metric).values
    span = values.max() - values.min()
    if span == 0.0:
        return np.zeros_like(values)
    return (values - values.min()) / span


def mean_normalized_centrality(
    logs: Mapping[str, QueryLog], g: Graph
) -> dict[str, dict[str, float | None]]:
    """Query-count-weighted mean normalized centrality of each strategy's queried nodes.

    Strategies with empty logs, and centralities the graph cannot support
    (they raise ``ValueError`` or ``ConvergenceError``), get ``None``
    entries (the missing marker).
    """
    normalized = {}
    for m in CENTRALITY_METRICS:
        try:
            normalized[m] = normalized_centrality(g, m)
        except (ValueError, ConvergenceError):
            pass
    table: dict[str, dict[str, float | None]] = {}
    for name, log in logs.items():
        if log.total_queries == 0:
            table[name] = {m: None for m in CENTRALITY_METRICS}
            continue
        weights = log.counts / log.total_queries
        table[name] = {
            m: float((normalized[m][log.sampled] * weights).sum()) if m in normalized else None
            for m in CENTRALITY_METRICS
        }
    return table
