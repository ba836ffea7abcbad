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
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from graph_oracles import brandes_shortest_paths, random_graph

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


def _bottom_up_levels(g: Graph, distances: np.ndarray) -> int:
    """The levels the shared pass expands from the unreached keys' side, by its rule.

    Each block's level volumes are the adjacency entries of its keys at
    each depth. A level goes bottom-up when its frontier has more entries
    than the keys not yet reached, plus one per key of the block, and some
    unreached entry is left.
    """
    n, entries = g.node_count, 2 * g.edge_count
    block = graphs._block_size(n, entries)
    degrees = np.broadcast_to(g.degrees(), (block, n))
    count = 0
    for first in range(0, n, block):
        dist = distances[first : first + block]
        b = dist.shape[0]
        reached = dist >= 0
        volume = np.bincount(dist[reached], weights=degrees[:b][reached])
        unreached = b * entries - np.cumsum(volume)
        count += np.count_nonzero((volume > unreached + b * n) & (unreached > 0))
    return count


def test_shared_pass_matches_textbook_brandes_bit_for_bit():
    # the oracle's FIFO order fixes the order of every float sum, so the
    # pass must give its bits on all four arrays, not merely close values
    rng = np.random.default_rng(5)
    shapes = Counter()
    for i in range(160):
        n = int(rng.integers(1, 46))
        p = float(rng.uniform(0.02, 0.9))
        g = random_graph(rng, n, p)
        got = graphs._shortest_paths(g)
        for field, have, want in zip(got._fields, got, brandes_shortest_paths(g)):
            assert have.dtype == want.dtype, f"{field} on graph {i} (n={n}, p={p:.2f})"
            assert have.tobytes() == want.tobytes(), f"{field} on graph {i} (n={n}, p={p:.2f})"
        block = graphs._block_size(n, 2 * g.edge_count)
        shapes["edgeless"] += g.edge_count == 0
        shapes["isolated"] += g.edge_count > 0 and 0 in g.degrees()
        shapes["disconnected"] += g.edge_count > 0 and bool((got.distances < 0).any())
        shapes["partial last block"] += block < n and n % block > 0
        shapes["bottom-up level"] += block > 1 and _bottom_up_levels(g, got.distances) > 0
    # the seed must keep drawing every shape the pass has to get right
    assert min(shapes.values()) >= 3 and len(shapes) == 5, shapes


@pytest.mark.parametrize(
    "make",
    [
        *(GRAPHS[name] for name in ("synthetic-300", "path-300", "grid-15x20", "geometric-300")),
        # ten edges: a block size set by the edge count alone would be all
        # 300 sources, and every array over the block's keys n x n
        lambda: Graph.from_edges(300, [(i, i + 1) for i in range(0, 20, 2)]),
    ],
    ids=["synthetic-300", "path-300", "grid-15x20", "geometric-300", "ten-edges-300"],
)
def test_shared_pass_peak_memory_on_300_nodes(make):
    # perfbench's study-large runs this pass cold on synthetic-300 in every
    # report emission, and its peak_rss_mb may grow by 5% at most: speed
    # must not cost memory, on that graph or on the sparse ones, whose
    # blocks hold the most sources
    g = make()
    graphs._shortest_paths.cache_clear()
    tracemalloc.start()
    try:
        graphs._shortest_paths(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000, f"peak {peak / 1e6:.2f} MB"


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
