"""Diversity and user-burden measurement over query logs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .graphs import CENTRALITY_METRICS, Graph, centrality
from .stats import average_ranks

BURDEN_QUANTITIES = ("query_count", "min_gap", "mean_gap")
CORRELATION_METHODS = ("pearson", "spearman")


@dataclass(frozen=True)
class QueryLog:
    """Which pool nodes were queried on which days, for one benchmark run."""

    pool: tuple[int, ...]
    days_by_node: Mapping[int, tuple[int, ...]]
    total_queries: int = field(init=False)

    def __post_init__(self) -> None:
        pool = tuple(sorted(set(int(v) for v in self.pool)))
        pool_set = set(pool)
        by_node = {}
        total = 0
        for node, days in sorted(self.days_by_node.items()):
            node = int(node)
            if node not in pool_set:
                raise ValueError(f"queried node {node} is not a pool node")
            days = tuple(int(d) for d in days)
            if any(b <= a for a, b in zip(days, days[1:])):
                raise ValueError(f"query days for node {node} must strictly increase")
            if days:
                by_node[node] = days
                total += len(days)
        object.__setattr__(self, "pool", pool)
        object.__setattr__(self, "days_by_node", by_node)
        object.__setattr__(self, "total_queries", total)

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

    def query_counts(self) -> dict[int, int]:
        """Queries per pool node (zero included)."""
        return {n: len(self.days_by_node.get(n, ())) for n in self.pool}

    def gaps(self, node: int) -> tuple[int, ...]:
        days = self.days_by_node.get(node, ())
        return tuple(b - a for a, b in zip(days, days[1:]))


def sampling_entropy(log: QueryLog) -> float:
    """Shannon entropy (natural log) of the per-node query frequency distribution."""
    if log.total_queries == 0:
        raise ValueError("sampling entropy is undefined for an empty log")
    h = 0.0
    for days in log.days_by_node.values():
        p = len(days) / log.total_queries
        h -= p * math.log(p)
    return h


def coverage_ratio(log: QueryLog) -> float:
    """Fraction of pool nodes queried at least once."""
    if log.pool_size == 0:
        raise ValueError("coverage ratio needs a nonempty pool")
    return len(log.days_by_node) / log.pool_size


def average_time_gap(log: QueryLog) -> float:
    """Mean over re-queried nodes of their mean gap between consecutive queries.

    Nodes queried fewer than twice have no gaps and are excluded from the
    outer mean.
    """
    per_node = [
        float(np.mean(gaps)) for node in log.days_by_node if (gaps := log.gaps(node))
    ]
    if not per_node:
        raise ValueError("no node was queried at least twice")
    return float(np.mean(per_node))


def within_gap_percentage(log: QueryLog, threshold_k: int) -> float:
    """Fraction of re-queried nodes whose smallest gap is below ``threshold_k``."""
    if threshold_k < 1:
        raise ValueError("threshold must be at least 1")
    qualifying = 0
    hits = 0
    for node in log.days_by_node:
        gaps = log.gaps(node)
        if not gaps:
            continue
        qualifying += 1
        if min(gaps) < threshold_k:
            hits += 1
    if qualifying == 0:
        raise ValueError("no node was queried at least twice")
    return hits / qualifying


def over_exertion(log: QueryLog, threshold: int) -> float:
    """Fraction of sampled nodes re-queried within ``threshold`` days at least once."""
    if len(log.days_by_node) == 0:
        raise ValueError("over-exertion is undefined for an empty log")
    exerted = sum(
        1
        for node in log.days_by_node
        if any(gap <= threshold for gap in log.gaps(node))
    )
    return exerted / len(log.days_by_node)


# ---------------------------------------------------------------------------
# Centrality / burden analyses
# ---------------------------------------------------------------------------


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float((xc * xc).sum()))
    sy = math.sqrt(float((yc * yc).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation is undefined when either side has zero variance")
    return float((xc * yc).sum() / (sx * sy))


def burden_quantity(log: QueryLog, quantity: str) -> dict[int, float]:
    """Per-node burden values; nodes without gaps are omitted for gap quantities."""
    if quantity == "query_count":
        return {n: float(c) for n, c in log.query_counts().items()}
    if quantity not in BURDEN_QUANTITIES:
        raise ValueError(f"unknown burden quantity {quantity!r}")
    out = {}
    for node in log.days_by_node:
        gaps = log.gaps(node)
        if not gaps:
            continue
        out[node] = float(min(gaps)) if quantity == "min_gap" else float(np.mean(gaps))
    return out


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
    burden = burden_quantity(log, quantity)
    nodes = sorted(burden)
    if len(nodes) < 3:
        raise ValueError("need at least three nodes with a defined burden quantity")
    x = values[nodes]
    y = np.array([burden[n] for n in nodes])
    if method == "spearman":
        x = average_ranks(x)
        y = average_ranks(y)
    return _pearson(x, y)


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

    Strategies with empty logs get ``None`` entries (the missing marker).
    """
    normalized = {m: normalized_centrality(g, m) for m in CENTRALITY_METRICS}
    table: dict[str, dict[str, float | None]] = {}
    for name, log in logs.items():
        if log.total_queries == 0:
            table[name] = {m: None for m in CENTRALITY_METRICS}
            continue
        nodes = sorted(log.days_by_node)
        weights = np.array([len(log.days_by_node[n]) for n in nodes], dtype=float)
        weights /= weights.sum()
        table[name] = {
            m: float((normalized[m][nodes] * weights).sum()) for m in CENTRALITY_METRICS
        }
    return table
