import os
import pickle
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from graph_oracles import (
    ORACLES,
    ReferenceGraph,
    oracle_best_partition,
    oracle_distances,
    oracle_modularity,
    random_graph,
    reference_from_edges,
    reference_graph,
)

from galstream import (
    CENTRALITY_METRICS,
    ConvergenceError,
    Graph,
    betweenness_centrality,
    centrality,
    closeness_centrality,
    clustering_coefficient,
    degree_centrality,
    eigenvector_centrality,
    graphs,
    harmonic_centrality,
    load_centrality,
    modularity,
    modularity_partition,
    pagerank,
)
from galstream.datasets import SyntheticConfig, synthetic_communities

PATH3 = Graph.from_edges(3, [(0, 1), (1, 2)])
TRIANGLE = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
STAR5 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
K4 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
BRIDGED_TRIANGLES = Graph.from_edges(
    6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
)


class TestGraphConstruction:
    def test_canonicalizes_and_deduplicates(self):
        g = Graph.from_edges(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.adjacency == ((1,), (0, 2), (1,))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            Graph.from_edges(2, [(0, 5)])

    def test_rejects_duplicate_canonical_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(node_count=2, edges=((0, 1), (0, 1)))


def _built(build, node_count, edges):
    """The graph ``build`` returns, or the type and message of the error it raises."""
    try:
        return build(node_count, edges)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_matches(g, ref):
    if not isinstance(ref, ReferenceGraph):
        assert g == ref  # the same error type and message
        return
    assert isinstance(g, Graph), g
    assert g.node_count == ref.node_count
    assert g.edges == ref.edges
    assert g.adjacency == ref.adjacency
    assert g.degrees().tolist() == [len(ns) for ns in ref.adjacency]
    assert hash(g) == ref.hash
    twin = Graph(ref.node_count, ref.edges)
    assert g == twin and twin == g
    if ref.edges:
        fewer = Graph(ref.node_count, ref.edges[:-1])
        assert g != fewer and fewer != g
    assert g != Graph(ref.node_count + 1, ref.edges)


def _outcome(result) -> str:
    """Which check rejected a build, or "graph" for a graph."""
    if isinstance(result, (Graph, ReferenceGraph)):
        return "graph"
    checks = ("at least one node", "unknown node", "self-loop", "canonical", "duplicate", "int()")
    return next(check for check in checks if check in result[1])


def _raw_pairs(rng, n):
    """Random pairs on about n ids, with repeated and reversed pairs, and now and then a
    self-loop or an id below 0 or at n or beyond."""
    ids = max(n, 2)
    pairs = [tuple(rng.choice(ids, 2, replace=False).tolist()) for _ in range(rng.integers(0, 12))]
    repeats = rng.integers(0, len(pairs), len(pairs) // 2)
    pairs += [pairs[i][:: rng.choice([1, -1])] for i in repeats]
    if rng.random() < 0.25:
        w = int(rng.integers(-1, n + 1))
        pairs.insert(int(rng.integers(0, len(pairs) + 1)), (w, w))
    for _ in range(rng.choice([0, 0, 1, 2])):
        bad = int(rng.choice([-2, -1, n, n + 1]))
        pairs.insert(int(rng.integers(0, len(pairs) + 1)), (bad, int(rng.integers(0, ids))))
    order = rng.permutation(len(pairs))
    return [pairs[i] for i in order]


def _spellings(rng, pairs):
    """``pairs`` as the kinds of input ``from_edges`` takes: a list, numpy int arrays, a
    zip iterator, and float or string ids that ``int()`` reads."""
    yield pairs
    yield np.array(pairs, dtype=np.int64).reshape(-1, 2)
    yield np.array(pairs, dtype=np.int32).reshape(-1, 2)
    yield zip([u for u, _ in pairs], [v for _, v in pairs])
    yield [(float(u), np.float64(v)) for u, v in pairs]
    yield [(str(u), f" {v} ") for u, v in pairs]
    if pairs:  # an id int() rejects, before or after the pairs' own faults
        i = int(rng.integers(0, len(pairs) + 1))
        yield pairs[:i] + [("1.5", 0)] + pairs[i:]


class TestArrayBuild:
    """The array build and checks against the per-edge reference in graph_oracles."""

    def test_from_edges_matches_per_edge_reference(self):
        rng = np.random.default_rng(2025)
        outcomes = set()
        for _ in range(300):
            n = int(rng.choice([0, 1, 2, 3, 5, 8]))
            pairs = _raw_pairs(rng, n)
            for edges in _spellings(rng, pairs):
                # an iterator is read once, so the reference reads its pairs as a list
                ref = _built(reference_from_edges, n, pairs if isinstance(edges, zip) else edges)
                _assert_matches(_built(Graph.from_edges, n, edges), ref)
                outcomes.add(_outcome(ref))
        # canonical pairs are never out of order or repeated
        assert outcomes == {"graph", "at least one node", "unknown node", "self-loop", "int()"}

    def test_direct_graph_matches_per_edge_reference(self):
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(400):
            n = int(rng.choice([0, 1, 2, 3, 5, 8]))
            edges = tuple(_raw_pairs(rng, n))
            if rng.random() < 0.5:  # mostly canonical, so the later checks are reached
                edges = tuple((min(e), max(e)) if rng.random() < 0.9 else e for e in edges)
            ref = _built(reference_graph, n, edges)
            for spelling in (edges, np.array(edges, dtype=np.intp).reshape(-1, 2)):
                _assert_matches(_built(Graph, n, spelling), ref)
            outcomes.add(_outcome(ref))
        assert outcomes == {
            "graph", "at least one node", "unknown node", "self-loop", "canonical", "duplicate"
        }

    def test_arrays_are_read_only(self):
        g = Graph.from_edges(4, np.array([[2, 1], [0, 1], [3, 0]]))
        for values in (g.pairs, g.offsets, g.neighbors):
            assert not values.flags.writeable
        assert g.pairs.tolist() == [[0, 1], [0, 3], [1, 2]]
        assert g.offsets.tolist() == [0, 2, 4, 5, 6]
        assert g.neighbors.tolist() == [1, 3, 0, 2, 1, 0]
        with pytest.raises(AttributeError):
            g.node_count = 5

    def test_pickled_graph_is_equal_and_read_only(self):
        g = BRIDGED_TRIANGLES
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        assert not copy.neighbors.flags.writeable

    def test_hash_is_the_same_in_every_process(self):
        # pool children unpickle graphs; a hash of bytes would follow PYTHONHASHSEED
        code = "from galstream import Graph; print(hash(Graph.from_edges(5, [(4, 0), (1, 2)])))"
        hashes = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("1", "2")
        }
        assert hashes == {str(hash(Graph.from_edges(5, [(4, 0), (1, 2)])))}

    def test_building_synthetic_300_peaks_below_the_per_edge_build(self):
        # the edges as generate_synthetic draws them (8,947 at seed 1); the per-edge
        # build from their zipped lists peaked at 2,493,160 bytes under tracemalloc
        config = SyntheticConfig(node_count=300)
        community = synthetic_communities(config)
        u, v = np.triu_indices(config.node_count, 1)
        p = np.where(community[u] == community[v], config.p_in, config.p_out)
        edge = np.random.default_rng(1).random(u.size) < p
        pairs = np.column_stack((u[edge], v[edge]))
        tracemalloc.start()
        try:
            g = Graph.from_edges(config.node_count, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count == 8947
        assert peak <= 2_493_160, f"peak {peak:,} bytes"


class TestShortestPaths:
    """Rows of the shared shortest-path pass: each source's hop distances."""

    def test_path_graph(self):
        assert graphs._shortest_paths(PATH3).distances[0].tolist() == [0, 1, 2]

    def test_unreachable_marker(self):
        g = Graph.from_edges(3, [(0, 1)])
        assert graphs._shortest_paths(g).distances[0].tolist() == [0, 1, -1]

    def test_matches_exhaustive_search_on_12_nodes(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 12, 0.25)
        dist = graphs._shortest_paths(g).distances
        for s in range(12):
            assert dist[s].tolist() == oracle_distances(g, s).tolist()


class TestDegree:
    def test_star(self):
        values = degree_centrality(STAR5).values
        assert values[0] == 1.0
        assert np.allclose(values[1:], 1 / 4)

    def test_path(self):
        assert degree_centrality(PATH3).values.tolist() == [0.5, 1.0, 0.5]

    def test_single_node_rejected(self):
        with pytest.raises(ValueError):
            degree_centrality(Graph.from_edges(1, []))

    def test_matches_neighbor_count_oracle(self):
        rng = np.random.default_rng(0)
        g = random_graph(rng, 8, 0.4)
        assert np.allclose(degree_centrality(g).values, ORACLES["degree"](g))


class TestBetweenness:
    def test_path_center(self):
        assert betweenness_centrality(PATH3).values.tolist() == [0.0, 1.0, 0.0]

    def test_triangle_all_zero(self):
        assert betweenness_centrality(TRIANGLE).values.tolist() == [0.0, 0.0, 0.0]

    def test_matches_path_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        g = random_graph(rng, 9, 0.3, connected=True)
        assert np.allclose(betweenness_centrality(g).values, ORACLES["betweenness"](g))


class TestCloseness:
    def test_path(self):
        assert np.allclose(closeness_centrality(PATH3).values, [1 / 3, 1 / 2, 1 / 3])

    def test_complete_graph(self):
        assert np.allclose(closeness_centrality(K4).values, 1 / 3)

    def test_two_components_use_per_component_sums(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
        assert np.allclose(closeness_centrality(g).values, ORACLES["closeness"](g))


class TestEigenvector:
    def test_complete_graph_symmetry(self):
        assert np.allclose(eigenvector_centrality(TRIANGLE).values, 1 / np.sqrt(3))

    def test_star_center_dominates(self):
        values = eigenvector_centrality(STAR5).values
        assert values[0] > values[1:].max()

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 8, 0.35, connected=True)
        got = eigenvector_centrality(g).values
        assert np.abs(got - ORACLES["eigenvector"](g)).max() < 1e-6

    def test_requires_an_edge(self):
        with pytest.raises(ValueError):
            eigenvector_centrality(Graph.from_edges(3, []))

    def test_nonconvergence_carries_last_iterate(self):
        with pytest.raises(ConvergenceError) as info:
            eigenvector_centrality(STAR5, max_iter=1, tol=1e-15)
        assert info.value.last is not None
        assert len(info.value.last) == 5


class TestHarmonic:
    def test_path(self):
        assert np.allclose(harmonic_centrality(PATH3).values, [1.5, 2.0, 1.5])

    def test_isolated_nodes_are_zero(self):
        g = Graph.from_edges(2, [])
        assert harmonic_centrality(g).values.tolist() == [0.0, 0.0]

    def test_matches_bfs_oracle(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 9, 0.3)
        assert np.allclose(harmonic_centrality(g).values, ORACLES["harmonic"](g))


class TestLoad:
    def test_path_center_share(self):
        assert np.allclose(load_centrality(PATH3).values, [0.0, 1 / 3, 0.0])

    def test_triangle_all_zero(self):
        assert load_centrality(TRIANGLE).values.tolist() == [0.0, 0.0, 0.0]

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 8, 0.35, connected=True)
        assert np.allclose(load_centrality(g).values, ORACLES["load"](g))


class TestPagerank:
    def test_complete_graph_uniform(self):
        assert np.allclose(pagerank(TRIANGLE).values, 1 / 3)

    def test_star_center_maximal(self):
        values = pagerank(STAR5).values
        assert values[0] > values[1:].max()

    def test_dangling_node_matches_reference_iteration(self):
        g = Graph.from_edges(3, [(1, 2)])  # node 0 isolated
        got = pagerank(g).values
        assert np.abs(got - ORACLES["pagerank"](g)).max() < 1e-9
        assert abs(got.sum() - 1.0) < 1e-9

    def test_damping_bounds(self):
        with pytest.raises(ValueError):
            pagerank(TRIANGLE, damping=1.0)

    def test_nonconvergence_error(self):
        with pytest.raises(ConvergenceError):
            pagerank(STAR5, max_iter=1, tol=1e-15)


class TestClusteringCoefficient:
    def test_triangle(self):
        assert clustering_coefficient(TRIANGLE).values.tolist() == [1.0, 1.0, 1.0]

    def test_star_has_no_triangles(self):
        assert clustering_coefficient(STAR5).values.tolist() == [0.0] * 5

    def test_matches_triple_enumeration(self):
        rng = np.random.default_rng(6)
        g = random_graph(rng, 10, 0.35)
        assert np.allclose(clustering_coefficient(g).values, ORACLES["clustering_coefficient"](g))


class TestModularityPartition:
    def test_bridged_triangles_split_at_bridge(self):
        part = modularity_partition(BRIDGED_TRIANGLES)
        assert part.community_count == 2
        assert part.community_of.tolist() == [0, 0, 0, 1, 1, 1]
        # greedy matches the exhaustive optimum on this graph
        best, best_q = oracle_best_partition(BRIDGED_TRIANGLES)
        got_q = oracle_modularity(BRIDGED_TRIANGLES, dict(enumerate(part.community_of)))
        assert abs(got_q - best_q) < 1e-12

    def test_complete_graph_single_community(self):
        assert modularity_partition(K4).community_count == 1

    def test_edgeless_graph_gives_singletons(self):
        part = modularity_partition(Graph.from_edges(3, []))
        assert part.community_of.tolist() == [0, 1, 2]

    def test_never_below_singleton_modularity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, 8, 0.3)
            if g.edge_count == 0:
                continue
            part = modularity_partition(g)
            singleton_q = modularity(g, np.arange(8))
            assert modularity(g, part.community_of) >= singleton_q - 1e-12


class TestCentralityInvariants:
    def test_outputs_are_finite_and_full_length(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            g = random_graph(rng, 8, 0.3)
            for name in CENTRALITY_METRICS:
                if name == "eigenvector" and g.edge_count == 0:
                    continue
                values = centrality(g, name).values
                assert values.shape == (8,)
                assert np.isfinite(values).all()

    def test_pagerank_sums_to_one_and_eigenvector_unit_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            g = random_graph(rng, 8, 0.35, connected=True)
            assert abs(pagerank(g).values.sum() - 1.0) < 1e-9
            assert abs(np.linalg.norm(eigenvector_centrality(g).values) - 1.0) < 1e-9

    def test_betweenness_and_load_vanish_on_complete_graphs(self):
        for n in (3, 4, 5, 6):
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
            assert betweenness_centrality(g).values.tolist() == [0.0] * n
            assert load_centrality(g).values.tolist() == [0.0] * n

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            g = random_graph(rng, 8, 0.4, connected=True)
            perm = rng.permutation(8)
            relabeled = Graph.from_edges(8, [(perm[u], perm[v]) for u, v in g.edges])
            for name in CENTRALITY_METRICS:
                original = centrality(g, name).values
                permuted = centrality(relabeled, name).values
                assert np.abs(permuted[perm] - original).max() < 1e-8, name

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            centrality(TRIANGLE, "katz")


def test_all_centralities_match_oracles_on_small_connected_graphs():
    rng = np.random.default_rng(11)
    for i in range(30):
        n = int(rng.integers(3, 8))
        g = random_graph(rng, n, 0.5, connected=True)
        for name in CENTRALITY_METRICS:
            got = centrality(g, name).values
            want = ORACLES[name](g)
            tol = 1e-6 if name in ("eigenvector", "pagerank") else 1e-9
            assert np.abs(got - want).max() < tol, f"{name} on graph {i}"
