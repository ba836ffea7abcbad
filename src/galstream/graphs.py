"""Static undirected graphs and the structural measures built on them.

All functions are pure: they take an immutable :class:`Graph` and return
fresh (read-only) arrays, so they are safe to call from any number of
workers. A graph holds its edges and its adjacency as read-only integer
arrays, built and checked in whole-array steps. Every centrality and the
modularity partition are cached per
graph, because benchmark runs re-request them every day on the same static
structure. The four path centralities (betweenness, closeness, harmonic,
load) share one cached all-pairs shortest-path pass, a level-synchronous
BFS from every source (Brandes 2001), and each reads what it needs from it.
That BFS runs a block of sources at once, and each level expands from its
cheaper side: the frontier's adjacency lists or those of the nodes not yet
reached (Beamer, Asanović & Patterson 2012). Both sides list a level's
pairs in the order a FIFO BFS finds them, so every value has the bits of
a textbook per-source pass.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache
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


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class Graph:
    """Immutable undirected graph on nodes ``0..node_count-1``.

    ``pairs`` is the canonical edge set as an (m, 2) integer array: unique
    ``(u, v)`` rows with ``u < v``, no self-loops, in the order given (sorted
    when built by :meth:`from_edges`, which takes raw edge pairs). Its CSR
    adjacency is ``offsets`` and ``neighbors``: the neighbours of node ``v``,
    sorted, are ``neighbors[offsets[v] : offsets[v + 1]]``. All three are
    read-only. ``edges`` and ``adjacency`` give the same as tuples, built
    anew on each read, so the package itself reads only the arrays.

    Graphs are equal when their node counts and edge rows are, and the hash
    is that of ``(node_count, edges)``, computed once, since every measure is
    cached per graph. It hashes integers only, so every process gives the
    same value.
    """

    def __init__(self, node_count: int, edges) -> None:
        if node_count < 1:
            raise ValueError("graph needs at least one node")
        n = operator.index(node_count)
        pairs = np.array(edges, dtype=np.intp).reshape(-1, 2)
        u, v = pairs.T
        unknown = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        # among the edges that pass the other checks, those equal to an earlier one:
        # a stable sort puts the earliest of equal keys first
        proper = np.flatnonzero(~unknown & (u < v))
        key = u[proper] * n + v[proper]
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = np.zeros(len(pairs), dtype=bool)
        repeat[proper[order[1:][key[1:] == key[:-1]]]] = True
        checks = [  # in the order an edge is checked
            (unknown, lambda i: f"edge ({u[i]},{v[i]}) references an unknown node"),
            (u == v, lambda i: f"self-loop at node {u[i]}"),
            (u > v, lambda i: f"edge ({u[i]},{v[i]}) is not in canonical (u<v) order"),
            (repeat, lambda i: f"duplicate edge ({u[i]},{v[i]})"),
        ]
        rejected = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
        if rejected.size:
            i = rejected[0]
            raise ValueError(next(message for mask, message in checks if mask[i])(i))
        # CSR: the directed entries sorted by (node, neighbour) as one key
        entry = np.sort(np.concatenate((u * n + v, v * n + u)))
        offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(pairs.reshape(-1), minlength=n), out=offsets[1:])
        self.__dict__.update(  # past the frozen __setattr__
            node_count=n,
            pairs=_read_only(pairs),
            offsets=_read_only(offsets),
            neighbors=_read_only(entry % n),
        )
        self.__dict__["_hash"] = hash((n, self.edges))

    @classmethod
    def from_edges(cls, node_count: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build a graph from raw pairs, canonicalizing order and dropping duplicates.

        ``edges`` is an (m, 2) integer array or any iterable of pairs whose
        ids ``int()`` reads. A self-loop is rejected first, at the first
        pair that has one; the graph then rejects the first bad edge in
        sorted canonical order.
        """
        pairs = _int_pairs(edges)
        _reject_self_loop(pairs)
        n = int(node_count)
        lo, hi = np.minimum(pairs[:, 0], pairs[:, 1]), np.maximum(pairs[:, 0], pairs[:, 1])
        if lo.size == 0 or (lo.min() >= 0 and hi.max() < n):
            order = np.argsort(lo * n + hi, kind="stable")
        else:  # an id outside 0..n-1, so n cannot key a pair
            order = np.lexsort((hi, lo))
        canon = np.column_stack((lo, hi))[order]
        kept = np.ones(len(canon), dtype=bool)
        kept[1:] = (canon[1:] != canon[:-1]).any(axis=1)
        return cls(n, canon[kept])

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.pairs.T.tolist()))

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        neighbors, offsets = self.neighbors.tolist(), self.offsets.tolist()
        return tuple(tuple(neighbors[a:b]) for a, b in zip(offsets, offsets[1:]))

    @property
    def edge_count(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.node_count == other.node_count and np.array_equal(self.pairs, other.pairs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(node_count={self.node_count!r}, edges={self.edges!r})"

    def __reduce__(self):  # rebuilt on unpickling, so its arrays stay read-only
        return self.__class__, (self.node_count, self.pairs)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.node_count, self.node_count))
        a[np.repeat(np.arange(self.node_count), self.degrees()), self.neighbors] = 1.0
        return a


def _int_pairs(edges) -> np.ndarray:
    """Raw edge pairs as an (m, 2) integer array, each id as ``int()`` reads it.

    An (m, 2) integer array is taken whole. Anything else is read pair by
    pair, and raises what ``for u, v in edges: int(u), int(v)`` raises,
    unless a pair before the failing one is a self-loop, which is rejected
    first.
    """
    if isinstance(edges, np.ndarray) and edges.dtype.kind in "iu" and edges.shape[1:] == (2,):
        return edges.astype(np.intp, copy=False)
    ids: list[tuple[int, int]] = []
    try:
        for u, v in edges:
            ids.append((int(u), int(v)))
    except (TypeError, ValueError):
        _reject_self_loop(np.array(ids, dtype=np.intp).reshape(-1, 2))
        raise
    return np.array(ids, dtype=np.intp).reshape(-1, 2)


def _reject_self_loop(pairs: np.ndarray) -> None:
    loops = np.flatnonzero(pairs[:, 0] == pairs[:, 1])
    if loops.size:
        raise ValueError(f"self-loop at node {pairs[loops[0], 0]}")


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


# ---------------------------------------------------------------------------
# Shortest paths
# ---------------------------------------------------------------------------


def shortest_path_distances(g: Graph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable nodes get ``UNREACHABLE``."""
    if not 0 <= source < g.node_count:
        raise ValueError(f"source {source} out of range")
    dist = np.full(g.node_count, UNREACHABLE, dtype=int)
    dist[source] = 0
    node = np.repeat(np.arange(g.node_count), g.degrees())  # each adjacency entry's node
    frontier = dist == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = np.zeros(g.node_count, dtype=bool)
        frontier[g.neighbors[(dist == depth - 1)[node]]] = True
        frontier &= dist == UNREACHABLE
        dist[frontier] = depth
    return dist


# A block of the shared pass holds at most this many keys, and four times
# this many adjacency entries; see _block_size.
_PAIR_ENTRIES = 1 << 14


def _block_size(n: int, entries: int) -> int:
    """The sources per block of the shared pass, on n nodes with ``entries`` adjacency entries.

    Each source of a block costs its n keys, each in five arrays (degree,
    first entry, rank, dependency and paths beyond), and its adjacency
    entries: the block's copy of them, the level's pairs and the kept
    (parent, child) pairs of the whole BFS, each at most one per entry. So a
    block of ``_PAIR_ENTRIES // (n + entries // 4)`` sources holds at most
    ``_PAIR_ENTRIES`` keys and ``4 * _PAIR_ENTRIES`` entries, whatever the
    graph. The keys count in the sum, not only in a maximum with the entries:
    on sparse 300-node graphs, where n is the larger term, the maximum alone
    gives 54 sources, and path-300 and grid-15x20 then peak at 2.95 and
    3.36 MB. The sum gives 36 and 28 sources, which peak at 2.48 and 2.44
    MB, and synthetic-300 three. Fewer sources cost sparse graphs time, since
    their many levels each pay numpy's per-call overhead once per block:
    path-300 runs twice as long at 13 sources as at 36.
    """
    return max(1, min(n, _PAIR_ENTRIES // (n + entries // 4)))


class _ShortestPaths(NamedTuple):
    distances: np.ndarray  # (n, n) hop distances, UNREACHABLE where unreachable
    sigma: np.ndarray  # (n, n) shortest-path counts, as floats
    betweenness: np.ndarray  # Brandes dependencies summed over sources, halved
    through: np.ndarray  # per node, the pairs' shortest paths strictly through it


@lru_cache(maxsize=64)
def _shortest_paths(g: Graph) -> _ShortestPaths:
    """One level-synchronous BFS from every source, shared by the path centralities.

    A block of sources (:func:`_block_size`) expands each level over the
    adjacency lists at once. The pair (i-th source of the block, node) is
    keyed ``i * n + node``. A level lists its (parent, child) pairs, those
    whose child is new, by the parent's place in the frontier, then by the
    child's node id. It takes them from whichever side has fewer adjacency
    entries:

    - top-down, the frontier's lists, keeping the pairs whose child is not
      yet reached; they come in that order;
    - bottom-up, the lists of the keys not yet reached, keeping the pairs
      whose far end is in the frontier. They come by child, and a parent's
      children by key, so a stable radix sort by the parent's frontier place
      puts them in top-down's order.

    ``unreached`` counts the adjacency entries of the keys not yet reached:
    it starts at every entry of the block and loses each frontier's. A level
    goes top-down when its frontier has at most ``unreached + b * n``
    entries, where ``b * n`` prices the scan that finds the unreached keys.
    The roots' level always goes top-down, since each root's entry has a
    reverse entry among the unreached keys, so the roots need no rank. A
    block stops when no entry is
    left unreached, where the last frontier would find nothing.

    Both sides give the same pairs in the same order, so from there a level
    is one code path. The next frontier is the new keys in the order of
    their first pair, which is the order a one-source FIFO BFS discovers
    them; ``np.minimum.at`` finds each key's first pair. The backward pass
    takes a level's pairs by child, in reverse discovery order: a stable
    radix sort of the children's reversed ranks. No level sorts by
    comparison: ranks and places are held in 8 or 16 bits, since a level
    finds at most ``_PAIR_ENTRIES`` keys when a block holds several sources,
    and at most n - 1 when it holds one, so only a graph of more than 65,536
    nodes needs wider ones, which numpy sorts by comparison.

    Every value has the bits of a textbook per-source Brandes pass.
    ``sigma``, ``beyond`` and ``through`` are sums of integers, held
    exactly as floats while they stay below 2**53, so the order of their
    terms does not matter. Only the dependency
    ``delta[v] += sigma[v] / sigma[w] * (1 + delta[w])`` rounds, and it
    adds, for each v, its successors w in reverse discovery order, as the
    textbook pass does over ``reversed(S)``. The dependencies of the
    sources are added into the betweenness in source order.
    ``beyond[s, v] = 1 + sum of beyond[s, w]`` over the successors w of v
    counts the shortest paths that start at v and lead away from s, so
    ``sigma[s, v] * (beyond[s, v] - 1)`` counts the s-t shortest paths that
    pass strictly through v, summed over t.
    """
    n = g.node_count
    entries = g.neighbors.size
    block = _block_size(n, entries)
    # the adjacency lists of every key of a block, back to back
    neighbor_keys = (g.neighbors + n * np.arange(block)[:, None]).reshape(-1)
    degree = np.tile(g.degrees(), block)
    first_neighbor = np.cumsum(degree) - degree

    def lists(keys, counts, ends):
        """The neighbor keys of the keys' adjacency lists, back to back."""
        edge = np.repeat(first_neighbor[keys] - ends + counts, counts)
        edge += np.arange(ends[-1])
        return neighbor_keys[edge]

    dist = np.full((n, n), UNREACHABLE, dtype=int)
    sigma = np.zeros((n, n))
    betweenness = np.zeros(n)
    through = np.zeros(n)
    rank = np.empty(block * n, dtype=np.intp)  # per key, its reversed frontier rank
    for first in range(0, n, block):
        b = min(block, n - first)
        dist_b = dist[first : first + b].reshape(-1)  # views into the full matrices
        sigma_b = sigma[first : first + b].reshape(-1)
        roots = np.arange(b) * (n + 1) + first  # key of (source first + i, itself)
        dist_b[roots] = 0
        sigma_b[roots] = 1.0
        frontier = roots
        unreached = b * entries
        levels = []  # per level, (parent, child) keys in Brandes' order
        depth = 0
        while frontier.size:
            depth += 1
            counts = degree[frontier]
            ends = np.cumsum(counts)
            unreached -= ends[-1]  # the adjacency entries of the keys not yet reached
            if unreached == 0:
                break
            if ends[-1] <= unreached + b * n:  # top-down: the frontier's lists
                child = lists(frontier, counts, ends)
                new = np.flatnonzero(dist_b[child] == UNREACHABLE)
                parent, child = np.repeat(frontier, counts)[new], child[new]
            else:  # bottom-up: the unreached keys' lists
                keys = np.flatnonzero(dist_b == UNREACHABLE)
                counts = degree[keys]
                ends = np.cumsum(counts)
                parent = lists(keys, counts, ends)
                hit = np.flatnonzero(dist_b[parent] == depth - 1)
                parent, child = parent[hit], np.repeat(keys, counts)[hit]
                place = frontier.size - 1 - rank[parent]  # rank counts from the end
                order = np.argsort(
                    place.astype(np.min_scalar_type(frontier.size)), kind="stable"
                )
                parent, child = parent[order], child[order]
            pair = np.arange(-1 - child.size, -1)  # below UNREACHABLE, in pair order
            np.minimum.at(dist_b, child, pair)  # each new key keeps its first pair
            frontier = child[dist_b[child] == pair]
            dist_b[frontier] = depth
            np.add.at(sigma_b, child, sigma_b[parent])
            last = frontier.size - 1
            rank[frontier] = np.arange(last, -1, -1)
            backward = np.argsort(
                rank[child].astype(np.min_scalar_type(last)), kind="stable"
            )
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
    """Sum of reciprocal distances to every reachable node.

    Rows with the same count of reachable nodes are packed into one
    C-contiguous matrix and summed along its rows, which adds each row's
    terms as summing that row on its own does, so every value keeps its bits.
    """
    dist = _shortest_paths(g).distances
    reach = dist > 0
    counts = np.count_nonzero(reach, axis=1)
    values = np.zeros(g.node_count)
    for k in np.unique(counts[counts > 0]).tolist():
        rows = counts == k
        values[rows] = (1.0 / dist[reach & rows[:, None]].reshape(-1, k)).sum(axis=1)
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
    a = g.adjacency_matrix()
    # row sums of (A @ A) * A without a third n x n array; exact integer counts in float64
    twice_triangles = np.einsum("ij,ij->i", a @ a, a)
    d = g.degrees()
    values = np.zeros(g.node_count)
    wedge = d >= 2
    values[wedge] = twice_triangles[wedge] / (d[wedge] * (d[wedge] - 1))
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
    ids, community = np.unique(np.asarray(community_of, dtype=int), return_inverse=True)
    u, v = g.pairs.T
    inside = community[u] == community[v]
    internal = np.bincount(community[u[inside]], minlength=ids.size)
    deg_sum = np.bincount(community, weights=g.degrees(), minlength=ids.size)  # exact integers
    # each community's term, added to q from left to right in community order
    return np.add.accumulate(internal / m - (deg_sum / (2.0 * m)) ** 2)[-1]


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
