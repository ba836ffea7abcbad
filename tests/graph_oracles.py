"""Brute-force graph oracles for the test suite.

Everything here is written independently of the library: the per-edge
build and checks of a graph, path enumeration by DFS, dictionary-based
fixed-point iterations, and exhaustive partition search. Slow on purpose;
only run on tiny graphs.
"""

import itertools
from collections import deque
from typing import NamedTuple

import numpy as np

from galstream import Graph


class ReferenceGraph(NamedTuple):
    """What the per-edge reference builds: ``Graph``'s fields as tuples, and its hash."""

    node_count: int
    edges: tuple
    adjacency: tuple
    hash: int


def reference_graph(node_count, edges) -> ReferenceGraph:
    """``Graph(node_count, edges)`` one edge at a time: each edge's checks, in order, and
    its adjacency lists."""
    if node_count < 1:
        raise ValueError("graph needs at least one node")
    seen = set()
    neighbors = [[] for _ in range(node_count)]
    for u, v in edges:
        if not (0 <= u < node_count and 0 <= v < node_count):
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
    adjacency = tuple(tuple(sorted(ns)) for ns in neighbors)
    return ReferenceGraph(node_count, edges, adjacency, hash((node_count, edges)))


def reference_from_edges(node_count, edges) -> ReferenceGraph:
    """``Graph.from_edges`` one pair at a time: canonicalize into a set, then sort."""
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        canon.add((min(u, v), max(u, v)))
    return reference_graph(int(node_count), tuple(sorted(canon)))


def random_graph(rng, n, p, connected=False) -> Graph:
    for _ in range(1000):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = Graph.from_edges(n, edges)
        if not connected or _is_connected(g):
            return g
    raise RuntimeError("could not sample a connected graph")


def _is_connected(g: Graph) -> bool:
    adjacency = g.adjacency  # built anew on each read
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == g.node_count


def all_simple_paths(g: Graph, s, t):
    adjacency = g.adjacency
    paths = []

    def walk(v, path):
        if v == t:
            paths.append(list(path))
            return
        for w in adjacency[v]:
            if w not in path:
                path.append(w)
                walk(w, path)
                path.pop()

    walk(s, [s])
    return paths


def shortest_paths_between(g: Graph, s, t):
    paths = all_simple_paths(g, s, t)
    if not paths:
        return []
    shortest = min(len(p) for p in paths)
    return [p for p in paths if len(p) == shortest]


def oracle_distances(g: Graph, s):
    out = np.full(g.node_count, -1)
    for t in range(g.node_count):
        if t == s:
            out[t] = 0
            continue
        paths = shortest_paths_between(g, s, t)
        if paths:
            out[t] = len(paths[0]) - 1
    return out


def brandes_shortest_paths(g: Graph):
    """Textbook Brandes (2001): a FIFO BFS per source, then dependencies over reversed S.

    Returns ``(distances, sigma, betweenness, through)`` with the meaning of
    ``galstream.graphs._shortest_paths``. Each float sum adds its terms in
    this algorithm's order: ``sigma[w]`` over ``P[w]`` in pop order, and
    ``delta[v]`` over the successors w of v as w leaves ``reversed(S)``.
    ``beyond[v]`` is 1 plus the sum of ``beyond[w]`` over those successors,
    so ``sigma[v] * (beyond[v] - 1)`` counts the s-t shortest paths through v.
    """
    n = g.node_count
    adjacency = g.adjacency
    distances = np.full((n, n), -1, dtype=int)
    sigma = np.zeros((n, n))
    betweenness = [0.0] * n
    through = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        paths = [0.0] * n
        preds = [[] for _ in range(n)]
        dist[s], paths[s] = 0, 1.0
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in sorted(adjacency[v]):
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    paths[w] += paths[v]
                    preds[w].append(v)
        delta = [0.0] * n
        beyond = [1.0 if d >= 0 else 0.0 for d in dist]
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += paths[v] / paths[w] * (1.0 + delta[w])
                beyond[v] += beyond[w]
        delta[s], beyond[s] = 0.0, 1.0
        for v in range(n):
            betweenness[v] += delta[v]
            through[v] += paths[v] * (beyond[v] - 1.0)
        distances[s] = dist
        sigma[s] = paths
    return distances, sigma, np.array(betweenness) / 2.0, np.array(through) / 2.0


def oracle_degree(g: Graph):
    return np.array([len(ns) / (g.node_count - 1) for ns in g.adjacency])


def oracle_betweenness(g: Graph):
    values = np.zeros(g.node_count)
    for s, t in itertools.combinations(range(g.node_count), 2):
        paths = shortest_paths_between(g, s, t)
        if not paths:
            continue
        for v in range(g.node_count):
            if v in (s, t):
                continue
            through = sum(1 for p in paths if v in p)
            values[v] += through / len(paths)
    return values


def oracle_load(g: Graph):
    values = np.zeros(g.node_count)
    total = 0
    for s, t in itertools.combinations(range(g.node_count), 2):
        paths = shortest_paths_between(g, s, t)
        total += len(paths)
        for v in range(g.node_count):
            if v in (s, t):
                continue
            values[v] += sum(1 for p in paths if v in p)
    return values / total if total else values


def oracle_closeness(g: Graph):
    values = np.zeros(g.node_count)
    for v in range(g.node_count):
        dist = oracle_distances(g, v)
        s = dist[dist > 0].sum()
        values[v] = 1.0 / s if s > 0 else 0.0
    return values


def oracle_harmonic(g: Graph):
    values = np.zeros(g.node_count)
    for v in range(g.node_count):
        dist = oracle_distances(g, v)
        values[v] = sum(1.0 / d for d in dist if d > 0)
    return values


def oracle_eigenvector(g: Graph):
    a = g.adjacency_matrix()
    eigvals, eigvecs = np.linalg.eigh(a)
    vec = eigvecs[:, np.argmax(eigvals)]
    if vec.sum() < 0:
        vec = -vec
    return np.abs(vec)


def oracle_pagerank(g: Graph, damping=0.85, iterations=200):
    n = g.node_count
    adjacency = g.adjacency
    deg = {v: len(adjacency[v]) for v in range(n)}
    scores = {v: 1.0 / n for v in range(n)}
    for _ in range(iterations):
        dangling = sum(scores[v] for v in range(n) if deg[v] == 0)
        new = {}
        for v in range(n):
            inbound = sum(scores[u] / deg[u] for u in adjacency[v])
            new[v] = (1 - damping) / n + damping * (inbound + dangling / n)
        scores = new
    return np.array([scores[v] for v in range(n)])


def oracle_clustering(g: Graph):
    values = np.zeros(g.node_count)
    edge_set = set(g.edges)
    for v, ns in enumerate(g.adjacency):
        if len(ns) < 2:
            continue
        triangles = sum(
            1
            for a, b in itertools.combinations(ns, 2)
            if (min(a, b), max(a, b)) in edge_set
        )
        values[v] = 2.0 * triangles / (len(ns) * (len(ns) - 1))
    return values


def oracle_modularity(g: Graph, assignment):
    edges = g.edges
    m = len(edges)
    deg = [len(ns) for ns in g.adjacency]
    q = 0.0
    for c in set(assignment):
        members = [v for v in range(g.node_count) if assignment[v] == c]
        internal = sum(1 for u, v in edges if assignment[u] == c and assignment[v] == c)
        deg_sum = sum(deg[v] for v in members)
        q += internal / m - (deg_sum / (2 * m)) ** 2
    return q


def set_partitions(items):
    """Every partition of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in set_partitions(rest):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        yield [[first]] + partial


def oracle_best_partition(g: Graph):
    """Exhaustive modularity maximization; returns (assignment, modularity)."""
    best_q = -np.inf
    best = None
    for blocks in set_partitions(list(range(g.node_count))):
        assignment = {}
        for c, block in enumerate(blocks):
            for v in block:
                assignment[v] = c
        q = oracle_modularity(g, assignment)
        if q > best_q:
            best_q = q
            best = assignment
    return best, best_q


ORACLES = {
    "degree": oracle_degree,
    "betweenness": oracle_betweenness,
    "closeness": oracle_closeness,
    "eigenvector": oracle_eigenvector,
    "harmonic": oracle_harmonic,
    "load": oracle_load,
    "pagerank": oracle_pagerank,
    "clustering_coefficient": oracle_clustering,
}
