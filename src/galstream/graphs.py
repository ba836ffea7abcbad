"""Static undirected graphs and the structural measures built on them.

All functions are pure: they take an immutable :class:`Graph` and return
fresh (read-only) arrays, so they are safe to call from any number of
workers. Every centrality and the modularity partition are cached per
graph, because benchmark runs re-request them every day on the same static
structure. The four path centralities (betweenness, closeness, harmonic,
load) share one cached all-pairs shortest-path pass, a level-synchronous
BFS from every source (Brandes 2001), and each reads what it needs from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

from .exceptions import ConvergenceError

UNREACHABLE = -1

CENTRALITY_METRICS = (
    "degree",
    "betweenness",
    "closeness",
    "eigenvector",
    "harmonic",
    "load",
    "pagerank",
    "clustering_coefficient",
)


def _frozen(values: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(values, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph on nodes ``0..node_count-1``.

    ``edges`` is the canonical edge set: unique ``(u, v)`` pairs with
    ``u < v``, sorted. No self-loops. Use :meth:`from_edges` to build one
    from raw edge pairs.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(
        init=False, compare=False, repr=False
    )
    # the measures are cached per graph, so hash the edge tuple only once
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")
        seen = set()
        neighbors: list[list[int]] = [[] for _ in range(self.node_count)]
        for u, v in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) references an unknown node")
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) is not in canonical (u<v) order")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add((u, v))
            neighbors[u].append(v)
            neighbors[v].append(u)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(ns)) for ns in neighbors)
        )
        object.__setattr__(self, "_hash", hash((self.node_count, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from raw pairs, canonicalizing order and dropping duplicates."""
        canon = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            canon.add((min(u, v), max(u, v)))
        return cls(node_count=int(node_count), edges=tuple(sorted(canon)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.array([len(ns) for ns in self.adjacency], dtype=int)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count))
        rows = np.repeat(np.arange(self.node_count), self.degrees())
        cols = np.fromiter(
            chain.from_iterable(self.adjacency), dtype=int, count=2 * self.edge_count
        )
        a[rows, cols] = 1.0
        return a


@dataclass(frozen=True)
class CentralityVector:
    """A per-node structural score (one value per node, read-only)."""

    metric: str
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _frozen(self.values))


@dataclass(frozen=True)
class Partition:
    """Disjoint community assignment with contiguous ids ``0..community_count-1``."""

    community_of: np.ndarray
    community_count: int

    def __post_init__(self) -> None:
        com = np.ascontiguousarray(self.community_of, dtype=int)
        com.setflags(write=False)
        object.__setattr__(self, "community_of", com)
        present = np.unique(com)
        if self.community_count < 1 or not np.array_equal(
            present, np.arange(self.community_count)
        ):
            raise ValueError("community ids must be contiguous 0..count-1")

    def members(self, community: int) -> np.ndarray:
        return np.flatnonzero(self.community_of == community)


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def shortest_path_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable nodes get ``UNREACHABLE``."""
    if not 0 <= source < g.node_count:
        raise ValueError(f"source {source} out of range")
    dist = np.full(g.node_count, UNREACHABLE, dtype=int)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


# The BFS runs from a block of sources at once. The block size follows from
# the edge count, so one block's expansion pairs, over all its levels, number
# about this many.
_PAIR_ENTRIES = 1 << 14


class _ShortestPaths(NamedTuple):
    distances: np.ndarray  # (n, n) hop distances, UNREACHABLE where unreachable
    sigma: np.ndarray  # (n, n) shortest-path counts, as floats
    betweenness: np.ndarray  # Brandes dependencies summed over sources, halved
    through: np.ndarray  # per node, the pairs' shortest paths strictly through it


@lru_cache(maxsize=64)
def _shortest_paths(g: Graph) -> _ShortestPaths:
    """One level-synchronous BFS from every source, shared by the path centralities.

    A block of sources expands each level over the adjacency lists at once.
    The pair (i-th source of the block, node) is keyed ``i * n + node``; the
    frontier holds the keys in the order a one-source FIFO BFS discovers
    them: by the rank of the first parent, then by node id. Each sum adds
    its terms in that BFS's order, so every value has the bits of a
    per-source BFS:
    ``sigma[w]`` adds its parents in pop order, and the Brandes dependency
    ``delta[v] += sigma[v] / sigma[w] * (1 + delta[w])`` runs over w in
    reverse discovery order, then over w's parents in pop order. The
    dependencies of the sources are added into the betweenness in source
    order. ``beyond[s, v] = 1 + sum of beyond[s, w]`` over the successors w
    of v counts the shortest paths that start at v and lead away from s, so
    ``sigma[s, v] * (beyond[s, v] - 1)`` counts the s-t shortest paths that
    pass strictly through v, summed over t.
    """
    n = g.node_count
    rows, neighbors = np.nonzero(g.adjacency_matrix())
    degree = np.bincount(rows, minlength=n)
    first_neighbor = np.cumsum(degree) - degree
    block = max(1, min(n, _PAIR_ENTRIES // max(1, neighbors.size)))
    dist = np.full((n, n), UNREACHABLE, dtype=int)
    sigma = np.zeros((n, n))
    betweenness = np.zeros(n)
    through = np.zeros(n)
    for first in range(0, n, block):
        b = min(block, n - first)
        dist_b = dist[first : first + b].reshape(-1)  # views into the full matrices
        sigma_b = sigma[first : first + b].reshape(-1)
        roots = np.arange(b) * (n + 1) + first  # key of (source first + i, itself)
        dist_b[roots] = 0
        sigma_b[roots] = 1.0
        frontier = roots
        levels = []  # per level, (parent, child) keys in Brandes' order
        depth = 0
        while frontier.size:
            depth += 1
            v = frontier % n
            counts = degree[v]
            offsets = np.repeat(first_neighbor[v] - (np.cumsum(counts) - counts), counts)
            parent = np.repeat(frontier, counts)
            child = parent - parent % n + neighbors[offsets + np.arange(offsets.size)]
            new = dist_b[child] == UNREACHABLE
            parent, child = parent[new], child[new]
            keys, first_seen, inverse = np.unique(
                child, return_index=True, return_inverse=True
            )
            discovery = np.argsort(first_seen)
            frontier = keys[discovery]
            dist_b[frontier] = depth
            np.add.at(sigma_b, child, sigma_b[parent])
            rank = np.empty_like(discovery)
            rank[discovery] = np.arange(discovery.size)
            backward = np.argsort(-rank[inverse], kind="stable")
            levels.append((parent[backward], child[backward]))
        delta = np.zeros(b * n)
        beyond = (dist_b != UNREACHABLE).astype(float)
        for parent, child in reversed(levels):
            ratio = sigma_b[parent] / sigma_b[child]
            np.add.at(delta, parent, ratio * (1.0 + delta[child]))
            np.add.at(beyond, parent, beyond[child])
        delta[roots] = 0.0
        beyond[roots] = 1.0
        for row in delta.reshape(b, n):
            betweenness += row
        through += (sigma_b * (beyond - 1.0)).reshape(b, n).sum(axis=0)
    dist.setflags(write=False)
    sigma.setflags(write=False)
    # each unordered pair was counted from both endpoints
    return _ShortestPaths(dist, sigma, betweenness / 2.0, through / 2.0)


# ---------------------------------------------------------------------------
# Centralities
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def degree_centrality(g: Graph) -> CentralityVector:
    """Fraction of other nodes each node is directly connected to."""
    if g.node_count < 2:
        raise ValueError("degree centrality is undefined on a single-node graph")
    return CentralityVector("degree", g.degrees() / (g.node_count - 1))


@lru_cache(maxsize=64)
def betweenness_centrality(g: Graph) -> CentralityVector:
    """Unnormalized betweenness over unordered node pairs (Brandes accumulation)."""
    return CentralityVector("betweenness", _shortest_paths(g).betweenness)


@lru_cache(maxsize=64)
def closeness_centrality(g: Graph) -> CentralityVector:
    """Reciprocal of the summed distances to the reachable nodes (0 if isolated)."""
    dist = _shortest_paths(g).distances
    totals = np.maximum(dist, 0).sum(axis=1)  # UNREACHABLE is negative
    values = np.where(totals > 0, 1.0 / np.maximum(totals, 1), 0.0)
    return CentralityVector("closeness", values)


@lru_cache(maxsize=64)
def harmonic_centrality(g: Graph) -> CentralityVector:
    """Sum of reciprocal distances to every reachable node."""
    values = np.zeros(g.node_count)
    for v, dist in enumerate(_shortest_paths(g).distances):
        reach = dist > 0
        if reach.any():
            values[v] = (1.0 / dist[reach]).sum()
    return CentralityVector("harmonic", values)


def eigenvector_centrality(
    g: Graph, max_iter: int = 1000, tol: float = 1e-9
) -> CentralityVector:
    """Principal-eigenvector scores via normalized power iteration.

    Iterates on A + I rather than A itself: the identity shift leaves the
    principal eigenvector unchanged but keeps the iteration from oscillating
    on bipartite structures (stars, trees), where the raw adjacency matrix
    has a matching negative eigenvalue. A graph on which the iteration does
    not converge raises on every call, but iterates only once.
    """
    if g.edge_count == 0:
        raise ValueError("eigenvector centrality needs at least one edge")
    vector, converged = _power_iteration(g, max_iter, tol)
    if not converged:
        raise ConvergenceError(
            f"eigenvector centrality did not converge in {max_iter} iterations",
            last=vector.values,
        )
    return vector


@lru_cache(maxsize=64)
def _power_iteration(g: Graph, max_iter: int, tol: float) -> tuple[CentralityVector, bool]:
    """The last iterate of the power iteration on A + I, and whether it converged."""
    a = g.adjacency_matrix()
    x = np.full(g.node_count, 1.0 / np.sqrt(g.node_count))
    for _ in range(max_iter):
        y = x + a @ x
        y /= np.linalg.norm(y)
        if np.max(np.abs(y - x)) < tol:
            return CentralityVector("eigenvector", y), True
        x = y
    return CentralityVector("eigenvector", x), False


@lru_cache(maxsize=64)
def load_centrality(g: Graph) -> CentralityVector:
    """Share of all shortest paths (over unordered pairs) routed through each node.

    Every distinct shortest path of every connected pair counts once in the
    denominator; the numerator counts the paths with the node strictly inside.
    Both are sums of integer path counts held as floats, so they are exact,
    and independent of the order of summation, while the counts stay below
    2**53; beyond that the numerator may round differently from a pairwise
    sum of ``sigma[s, v] * sigma[v, t]``.
    """
    paths = _shortest_paths(g)
    total = paths.sigma[np.triu(paths.distances > 0, k=1)].sum()
    if total == 0:
        return CentralityVector("load", np.zeros(g.node_count))
    return CentralityVector("load", paths.through / total)


@lru_cache(maxsize=64)
def pagerank(
    g: Graph, damping: float = 0.85, max_iter: int = 1000, tol: float = 1e-9
) -> CentralityVector:
    """Stationary random-surfer scores; undirected edges act as two links.

    Degree-zero nodes are dangling and spread their mass uniformly over the
    whole graph each step, so the scores always sum to 1.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")
    n = g.node_count
    a = g.adjacency_matrix()
    deg = g.degrees().astype(float)
    dangling = deg == 0
    inv_deg = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, deg))
    p = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = a @ (p * inv_deg) + p[dangling].sum() / n
        new = (1.0 - damping) / n + damping * spread
        if np.max(np.abs(new - p)) < tol:
            return CentralityVector("pagerank", new)
        p = new
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations", last=p
    )


@lru_cache(maxsize=64)
def clustering_coefficient(g: Graph) -> CentralityVector:
    """Local triangle density: 2 T(v) / (deg(v) (deg(v) - 1)); 0 when deg < 2."""
    neighbor_sets = [set(ns) for ns in g.adjacency]
    values = np.zeros(g.node_count)
    for v, ns in enumerate(g.adjacency):
        d = len(ns)
        if d < 2:
            continue
        triangles = 0
        for i in range(d):
            for j in range(i + 1, d):
                if ns[j] in neighbor_sets[ns[i]]:
                    triangles += 1
        values[v] = 2.0 * triangles / (d * (d - 1))
    return CentralityVector("clustering_coefficient", values)


def centrality(g: Graph, metric: str) -> CentralityVector:
    """Compute any of the supported centralities by name."""
    try:
        fn = _CENTRALITY_FUNCTIONS[metric]
    except KeyError:
        raise ValueError(
            f"unknown centrality {metric!r}; expected one of {CENTRALITY_METRICS}"
        ) from None
    return fn(g)


_CENTRALITY_FUNCTIONS = {
    "degree": degree_centrality,
    "betweenness": betweenness_centrality,
    "closeness": closeness_centrality,
    "eigenvector": eigenvector_centrality,
    "harmonic": harmonic_centrality,
    "load": load_centrality,
    "pagerank": pagerank,
    "clustering_coefficient": clustering_coefficient,
}


# ---------------------------------------------------------------------------
# Community detection
# ---------------------------------------------------------------------------


def modularity(g: Graph, community_of: np.ndarray) -> float:
    """Newman modularity of a community assignment."""
    m = g.edge_count
    if m == 0:
        raise ValueError("modularity is undefined on an edgeless graph")
    community_of = np.asarray(community_of, dtype=int)
    deg = g.degrees()
    q = 0.0
    for c in np.unique(community_of):
        members = community_of == c
        internal = sum(
            1 for u, v in g.edges if members[u] and members[v]
        )
        deg_sum = deg[members].sum()
        q += internal / m - (deg_sum / (2.0 * m)) ** 2
    return q


@lru_cache(maxsize=64)
def modularity_partition(g: Graph) -> Partition:
    """Greedy modularity agglomeration (CNM-style), deterministic.

    Starts from singleton communities and repeatedly merges the connected
    pair with the largest positive modularity gain; ties go to the smallest
    community-id pair. Community ids during agglomeration are the smallest
    member node id, and the result is relabeled to contiguous ids ordered
    by smallest member. An edgeless graph yields singletons.

    The gains are a dense matrix, ``-inf`` off the connected pairs ``a < b``,
    so its row-major argmax is the first best pair; a merge recomputes only
    the merged community's row and column, and its edge counts add exactly.
    """
    n = g.node_count
    if g.edge_count == 0:
        return Partition(np.arange(n), n)

    m = float(g.edge_count)
    scale = (2.0 * m) ** 2
    deg_sum = g.degrees().astype(float)
    between = g.adjacency_matrix()  # edges between communities a and b (a != b)
    gain = between / m - (2.0 * deg_sum)[:, None] * deg_sum[None, :] / scale
    gain[~np.triu(between > 0, k=1)] = -np.inf
    owner = np.arange(n)  # node -> community id (smallest member id)
    while True:
        a, b = divmod(int(gain.argmax()), n)
        if gain[a, b] <= 0.0:
            break
        # fold b into a
        row = between[a] + between[b]
        row[[a, b]] = 0.0
        between[a] = between[:, a] = row
        between[b] = between[:, b] = 0.0
        deg_sum[a] += deg_sum[b]
        owner[owner == b] = a
        gain[b] = gain[:, b] = -np.inf
        # both factors are integers held exactly, so the product is symmetric
        row_gain = np.where(row > 0, row / m - 2.0 * deg_sum[a] * deg_sum / scale, -np.inf)
        gain[a, a + 1 :] = row_gain[a + 1 :]
        gain[:a, a] = row_gain[:a]

    ids, community_of = np.unique(owner, return_inverse=True)
    return Partition(community_of, len(ids))
