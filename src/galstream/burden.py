"""Diversity and user-burden measurement over query logs."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .exceptions import ConvergenceError
from .graphs import CENTRALITY_METRICS, Graph, centrality
from .stats import average_ranks

BURDEN_QUANTITIES = ("query_count", "min_gap", "mean_gap")
CORRELATION_METHODS = ("pearson", "spearman")

_NO_GAP = np.iinfo(np.int64).max


@dataclass(frozen=True)
class QueryLog:
    """Which pool nodes were queried on which days, summarised once in ascending node order.

    Every log is built from its events as arrays by one path, whether it
    comes from a mapping of each node's days, from (day, node) events or
    from an array of them.
    """

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
        keys = np.fromiter(self.days_by_node, np.intp, len(self.days_by_node))
        lengths = np.fromiter(map(len, self.days_by_node.values()), np.intp, keys.size)
        days = np.fromiter(chain.from_iterable(self.days_by_node.values()), np.int64)
        nodes = np.repeat(keys, lengths)
        order = np.argsort(nodes, kind="stable")  # each node's days keep their order
        self._summarise(self.pool, nodes[order], days[order], keys)

    @classmethod
    def from_events(cls, pool: Iterable[int], events) -> "QueryLog":
        """Build from (day, node) events, or an (events, 2) array of them, in any order."""
        if not isinstance(events, np.ndarray):
            events = np.array(list(events), dtype=np.int64)
        days, nodes = events.reshape(-1, 2).T
        order = np.lexsort((days, nodes))
        log = object.__new__(cls)
        log._summarise(pool, nodes[order].astype(np.intp), days[order].astype(np.int64))
        return log

    def _summarise(self, pool, nodes: np.ndarray, days: np.ndarray, keys=None) -> None:
        """Set every field from the events ``(nodes, days)``: sorted by node, each node's
        days in their given order. ``keys``, the nodes a mapping named, queried or
        not, must lie in the pool too."""
        pool = sorted({int(v) for v in pool})
        first_event = np.ones(nodes.size, dtype=bool)
        first_event[1:] = nodes[1:] != nodes[:-1]
        starts = np.flatnonzero(first_event)
        sampled = nodes[starts]
        counts = np.append(starts[1:], nodes.size) - starts
        gaps = days[1:] - days[:-1]
        between = first_event[1:]  # the gaps from one node's last day to the next node's first
        outside = sorted(set((sampled if keys is None else keys).tolist()).difference(pool))
        unordered = nodes[1:][~between & (gaps <= 0)]
        # the smallest offending node is reported, its pool check before its days
        if outside and not (unordered.size and unordered[0] < outside[0]):
            raise ValueError(f"queried node {outside[0]} is not a pool node")
        if unordered.size:
            raise ValueError(f"query days for node {unordered[0]} must strictly increase")
        again = counts > 1
        first = starts[again]
        last = first + counts[again] - 1
        bounds = starts.tolist() + [nodes.size]
        listed = days.tolist()
        by_node = {
            node: tuple(listed[a:b]) for node, a, b in zip(sampled.tolist(), bounds, bounds[1:])
        }
        gaps[between] = _NO_GAP  # so that they never win a node's smallest gap
        object.__setattr__(self, "pool", tuple(pool))
        object.__setattr__(self, "days_by_node", by_node)
        object.__setattr__(self, "total_queries", int(nodes.size))
        object.__setattr__(self, "sampled", sampled)
        object.__setattr__(self, "counts", counts.astype(np.int64))
        object.__setattr__(self, "requeried", sampled[again])
        object.__setattr__(self, "min_gaps", np.minimum.reduceat(gaps, first))
        object.__setattr__(self, "mean_gaps", (days[last] - days[first]) / (counts[again] - 1))

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


def _centred(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``v`` minus its mean along the last axis, and the root of its sum of squares."""
    vc = v - v.mean(axis=-1, keepdims=True)
    return vc, np.sqrt((vc * vc).sum(axis=-1))


def _correlations(x: tuple[np.ndarray, ...], y: tuple[np.ndarray, ...]) -> np.ndarray:
    """Pearson correlations of :func:`_centred` sides, along the last axis; NaN where
    either side has zero variance.

    Each product is summed along a row of one C-contiguous array, which sums
    it as one pair of vectors is summed on its own.
    """
    (xc, sx), (yc, sy) = x, y
    defined = (sx != 0.0) & (sy != 0.0)
    out = np.full(defined.shape, np.nan)
    return np.divide((xc * yc).sum(axis=-1), sx * sy, out=out, where=defined)


def _sides(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The correlation sides of each row of ``v`` by every method in
    ``CORRELATION_METHODS``: the row, then its average ranks, stacked on a new
    leading axis and centred."""
    return _centred(np.stack([v, average_ranks(v)]))


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
    m = CORRELATION_METHODS.index(method)
    (xc, sx), (yc, sy) = _sides(values[nodes]), _sides(y)
    r = _correlations((xc[m], sx[m]), (yc[m], sy[m]))
    if np.isnan(r):
        raise ValueError("correlation is undefined when either side has zero variance")
    return float(r)


def centrality_burden_correlations(logs: Sequence[QueryLog], g: Graph) -> np.ndarray:
    """Every correlation of each log, as a (log, centrality, quantity, method) array;
    NaN where undefined.

    Every value has the bits of its :func:`centrality_burden_correlation`
    call. The burden sides are grouped by their node set: a bootstrap's pool,
    which the ``query_count`` of all its logs share, or a log's re-queried
    nodes, which its ``min_gap`` and ``mean_gap`` share. Each set's
    centrality sides and burden sides are ranked for Spearman and centred
    as the C-contiguous rows of one array each, and every burden side meets
    every centrality in one product summed along its rows.
    """
    defined, columns = [], []
    for i, metric in enumerate(CENTRALITY_METRICS):
        try:
            columns.append(centrality(g, metric).values)
            defined.append(i)
        except (ValueError, ConvergenceError):
            pass
    table = np.array(columns).reshape(len(columns), g.node_count)  # (centrality, node)
    node_sets: dict[bytes, tuple[np.ndarray, list]] = {}  # the (log, quantity, y) of each
    for i, log in enumerate(logs):
        for q, quantity in enumerate(BURDEN_QUANTITIES):
            try:
                nodes, y = _correlated_nodes(log, quantity)
            except ValueError:
                continue
            node_sets.setdefault(nodes.tobytes(), (nodes, []))[1].append((i, q, y))
    shape = (len(logs), len(BURDEN_QUANTITIES), len(CORRELATION_METHODS))
    found = np.full((*shape, len(columns)), np.nan)
    for nodes, members in node_sets.values():
        i, q, y = zip(*members)
        xc, sx = _sides(table[:, nodes])  # (method, centrality, node)
        yc, sy = _sides(np.array(y))  # (method, member, node)
        correlations = _correlations((xc[:, None], sx[:, None]), (yc[:, :, None], sy[:, :, None]))
        found[list(i), list(q)] = correlations.transpose(1, 0, 2)
    out = np.full((len(logs), len(CENTRALITY_METRICS), *shape[1:]), np.nan)
    out[:, defined] = found.transpose(0, 3, 1, 2)
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
