"""The partition strategies' array code against their loop references.

Every comparison the loops in ``partition_oracles`` make is reproduced
exactly by the library, so each test requires equal results: the same
medoid indices, the same community labels and the same picks.
"""

import numpy as np
import pytest
from graph_oracles import random_graph
from partition_oracles import (
    oracle_coreset,
    oracle_graphpart,
    oracle_graphpartfar,
    oracle_kcenter_greedy,
    oracle_kmedoids,
    oracle_modularity_partition,
)
from test_centrality_digests import GRAPHS
from test_partition_pins import _benchmark_dataset

from galstream import (
    Graph,
    SelectionContext,
    TrainConfig,
    build_normalized_adjacency,
    forward,
    kcenter_greedy,
    kmedoids,
    make_split,
    modularity_partition,
    select,
    train,
)
from galstream.strategies import allocate_budget


def _points(rng, n):
    """Points with tied distances and duplicate rows in most draws."""
    dim = int(rng.integers(1, 4))
    kind = rng.integers(3)
    if kind == 0:
        return rng.normal(size=(n, dim))
    if kind == 1:  # a small integer grid: many equal distances
        return rng.integers(0, 3, size=(n, dim)).astype(float)
    base = rng.normal(size=(max(1, n // 2), dim))  # duplicated rows
    return base[rng.integers(len(base), size=n)]


def test_kmedoids_matches_loop_reference():
    rng = np.random.default_rng(505)
    for _ in range(300):
        n = int(rng.integers(1, 19))
        points = _points(rng, n)
        for k in {1, n, int(rng.integers(1, n + 1))}:
            got = kmedoids(points, k)
            want = oracle_kmedoids(points, k)
            assert np.array_equal(got, want), (points.tolist(), k, got, want)


def test_kmedoids_on_identical_points_takes_the_first_ids():
    points = np.ones((6, 2))
    for k in range(1, 7):
        assert np.array_equal(kmedoids(points, k), np.arange(k))
        assert np.array_equal(oracle_kmedoids(points, k), np.arange(k))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_kmedoids_rejects_non_finite_points(bad):
    points = np.zeros((4, 2))
    points[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        kmedoids(points, 2)


def _graphs(rng):
    yield Graph(node_count=1, edges=())
    yield Graph(node_count=7, edges=())
    yield Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])  # three components
    for _ in range(120):
        n = int(rng.integers(2, 40))
        yield random_graph(rng, n, float(rng.uniform(0.02, 0.6)))


def test_modularity_partition_matches_loop_reference():
    rng = np.random.default_rng(606)
    for g in _graphs(rng):
        part = modularity_partition(g)
        community_of, count = oracle_modularity_partition(g)
        assert part.community_count == count
        assert np.array_equal(part.community_of, community_of), g


@pytest.mark.parametrize("name", ["synthetic-40", "grid-15x20", "two-components-isolated"])
def test_modularity_partition_matches_loop_reference_on_digest_graphs(name):
    g = GRAPHS[name]()
    community_of, count = oracle_modularity_partition(g)
    assert modularity_partition(g).community_count == count
    assert np.array_equal(modularity_partition(g).community_of, community_of)


def _context(rng, g):
    n = g.node_count
    pool = sorted(rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False).tolist())
    points = _points(rng, n)
    history = [v for v in pool if rng.random() < 0.4]
    p1 = rng.uniform(0.05, 0.95, size=n)
    return SelectionContext(
        graph=g,
        adj=build_normalized_adjacency(g),
        features=points,
        embeddings=points,
        probabilities=np.column_stack([1 - p1, p1]),
        pool=tuple(pool),
        history={v: (int(rng.integers(0, 5)),) for v in history},
        k=int(rng.integers(1, len(pool) + 1)),
        rng_seed=0,
    )


def test_partition_strategies_match_loop_reference():
    rng = np.random.default_rng(707)
    for trial in range(150):
        g = random_graph(rng, int(rng.integers(3, 30)), float(rng.uniform(0.05, 0.5)))
        ctx = _context(rng, g)
        assert select("graphpart", ctx).chosen == oracle_graphpart(ctx, allocate_budget)
        want = oracle_graphpartfar(ctx, allocate_budget)
        assert select("graphpartfar", ctx).chosen == want, trial


def test_graphpartfar_with_nan_anchor_matches_loop_reference():
    # node 5 is a history node outside the pool, so its NaN reaches neither
    # kmedoids nor the radius; it makes every anchor distance NaN in both scans
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    emb = np.arange(12.0).reshape(6, 2)
    emb[5] = np.nan
    ctx = SelectionContext(
        graph=g,
        adj=build_normalized_adjacency(g),
        features=emb,
        embeddings=emb,
        probabilities=np.full((6, 2), 0.5),
        pool=(0, 1, 2, 3, 4),
        history={5: (0,), 1: (1,)},
        k=2,
        rng_seed=0,
    )
    assert select("graphpartfar", ctx).chosen == oracle_graphpartfar(ctx, allocate_budget)


def test_kcenter_greedy_matches_loop_reference():
    rng = np.random.default_rng(808)
    for _ in range(300):
        n = int(rng.integers(1, 19))
        points = _points(rng, n)
        pre = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False).tolist()
        k = int(rng.integers(1, n + 1))
        got = kcenter_greedy(points, k, pre)
        assert got.tolist() == oracle_kcenter_greedy(points, k, pre), (points.tolist(), k, pre)


@pytest.mark.parametrize("bad", [-1, -3, 5, 9])
def test_kcenter_greedy_rejects_preselected_outside_the_points(bad):
    # -1 once counted as the last point for distances but blocked no point
    with pytest.raises(ValueError, match=rf"^preselected index {bad} outside \[0, 5\)$"):
        kcenter_greedy(np.arange(10.0).reshape(5, 2), 2, [1, bad])


def _trained_day(seed, history_size, k):
    """A day of the 300-node benchmark stream, embedded by a trained model the way
    the harness embeds it in model_based mode.

    The history holds the pool nodes nearest one pool node in embedding space,
    so GraphPartFar replaces the medoids near them and keeps the rest, and a
    few holdout nodes, which anchor it from outside the pool.
    """
    dataset = _benchmark_dataset()
    rng = np.random.default_rng(seed)
    split = make_split(dataset, 0.2, seed)
    adj = build_normalized_adjacency(dataset.graph)
    examples = [
        (day.features, day.labels, [v for v in split.pool if day.labels[v] != -1])
        for day in dataset.days[:3]
    ]
    params = train(seed, adj, examples, TrainConfig(epochs=10, learning_rate=0.2))
    frame = dataset.days[int(rng.integers(3, 29))]
    out = forward(params, adj, frame.features)
    pool = np.array(split.pool)
    offsets = out.hidden[pool] - out.hidden[rng.choice(pool)]
    nearest = np.argsort(np.sqrt((offsets * offsets).sum(axis=1)), kind="stable")
    history = pool[nearest[:history_size]].tolist()
    history += rng.choice(split.holdout, size=5, replace=False).tolist()
    return SelectionContext(
        graph=dataset.graph,
        adj=adj,
        features=frame.features,
        embeddings=out.hidden,
        probabilities=out.probabilities,
        pool=split.pool,
        history={int(v): (int(rng.integers(0, 30)),) for v in history},
        k=k,
        rng_seed=seed,
    )


@pytest.mark.parametrize("seed, history_size, k", [(25, 100, 10), (25, 110, 24), (27, 110, 24)])
def test_strategies_match_loop_reference_on_a_300_node_trained_day(seed, history_size, k):
    ctx = _trained_day(seed, history_size, k)
    assert len(ctx.pool) == 240 and np.count_nonzero(ctx.embeddings == 0) > 0
    graphpart = select("graphpart", ctx).chosen
    assert graphpart == oracle_graphpart(ctx, allocate_budget)
    graphpartfar = select("graphpartfar", ctx).chosen
    assert graphpartfar == oracle_graphpartfar(ctx, allocate_budget)
    assert graphpartfar != graphpart  # the scan replaced some medoids
    assert select("coreset", ctx).chosen == oracle_coreset(ctx)
