"""Bit-for-bit digests of every centrality on a fixed set of graphs.

Each report byte depends on the centrality values through ``repr(float)``
and average ranks, so a faster implementation must return the same bits,
not merely close values. ``golden/centrality_digests.json`` maps each
graph to the SHA-256 of ``values.tobytes()`` per metric. A metric that a
graph cannot support (it raises) is left out of the file, and the test
checks that it still raises. A change that moves values regenerates the
file with

    PYTHONPATH=src python tests/test_centrality_digests.py

and records in CHANGES.md which values moved.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from galstream import (
    CENTRALITY_METRICS,
    Graph,
    SyntheticConfig,
    betweenness_centrality,
    centrality,
    graphs,
    load_centrality,
    shortest_path_distances,
)
from galstream.datasets import generate_synthetic
from galstream.exceptions import ConvergenceError

GOLDEN = Path(__file__).parent / "golden" / "centrality_digests.json"


def _synthetic(nodes: int) -> Graph:
    # the benchmark's stream: configs/example.ini's synthetic seed 1
    return generate_synthetic(SyntheticConfig(node_count=nodes, days=30), seed=1).graph


def _path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _grid(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def _geometric(n: int, radius: float, seed: int) -> Graph:
    points = np.random.default_rng(seed).random((n, 2))
    close = np.linalg.norm(points[:, None] - points[None, :], axis=2) < radius
    u, v = np.nonzero(np.triu(close, k=1))
    return Graph.from_edges(n, zip(u.tolist(), v.tolist()))


def _two_components_and_isolated() -> Graph:
    # a 6-cycle with a chord, a 4-node star and node 10 on its own
    cycle = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]
    star = [(6, 7), (6, 8), (6, 9)]
    return Graph.from_edges(11, cycle + star)


GRAPHS = {
    "synthetic-40": lambda: _synthetic(40),
    "synthetic-120": lambda: _synthetic(120),
    "synthetic-300": lambda: _synthetic(300),
    "path-300": lambda: _path(300),
    "grid-15x20": lambda: _grid(15, 20),
    "geometric-300": lambda: _geometric(300, 0.1, seed=7),
    "two-components-isolated": _two_components_and_isolated,
    "edgeless-6": lambda: Graph(node_count=6, edges=()),
}


def digests(g: Graph) -> dict[str, str]:
    """SHA-256 of each supported metric's values; unsupported metrics are left out."""
    out = {}
    for metric in CENTRALITY_METRICS:
        try:
            values = centrality(g, metric).values
        except (ValueError, ConvergenceError):
            continue
        out[metric] = hashlib.sha256(values.tobytes()).hexdigest()
    return out


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def graph(request):
    return request.param, GRAPHS[request.param]()


def test_centralities_match_golden_digests(graph):
    name, g = graph
    expected = json.loads(GOLDEN.read_text())[name]
    assert digests(g) == expected
    for metric in set(CENTRALITY_METRICS) - set(expected):
        with pytest.raises((ValueError, ConvergenceError)):
            centrality(g, metric)


def test_shared_pass_distances_match_single_source_bfs(graph):
    _, g = graph
    dist = graphs._shortest_paths(g).distances
    for s in range(g.node_count):
        assert np.array_equal(dist[s], shortest_path_distances(g, s))


def test_cold_caches_recompute_the_shared_pass_once():
    # the benchmark clears every lru cache of galstream.graphs before an op;
    # state kept anywhere else would survive that and fake a cold run
    g = GRAPHS["synthetic-40"]()
    for fn in vars(graphs).values():
        if hasattr(fn, "cache_info"):
            fn.cache_clear()
    before = dict(vars(g))
    betweenness_centrality(g)
    info = graphs._shortest_paths.cache_info()
    assert (info.misses, info.hits) == (1, 0)
    load_centrality(g)
    info = graphs._shortest_paths.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert vars(g).keys() == before.keys()


if __name__ == "__main__":
    table = {name: digests(build()) for name, build in sorted(GRAPHS.items())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
