import numpy as np
import pytest
from partition_oracles import oracle_diversity_radius
from scipy.stats import rankdata

from galstream import (
    Graph,
    STRATEGY_NAMES,
    SelectionContext,
    SyntheticConfig,
    build_normalized_adjacency,
    degree_centrality,
    generate_synthetic,
    kcenter_greedy,
    kmeans,
    kmedoids,
    modularity_partition,
    pagerank,
    select,
    synthetic_communities,
)
from galstream.strategies import (
    allocate_budget,
    row_entropy,
    select_age,
    select_uncertainty,
    top_k_by_score,
)

RING9 = Graph.from_edges(
    9, [(i, (i + 1) % 9) for i in range(9)] + [(0, 4), (2, 7)]
)
BRIDGED_TRIANGLES = Graph.from_edges(
    6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
)


def make_ctx(
    graph=RING9,
    pool=None,
    k=2,
    seed=0,
    probabilities=None,
    embeddings=None,
    history=None,
    features=None,
):
    n = graph.node_count
    rng = np.random.default_rng(seed + 1000)
    if probabilities is None:
        p1 = rng.uniform(0.05, 0.95, size=n)
        probabilities = np.column_stack([1 - p1, p1])
    if embeddings is None:
        embeddings = rng.normal(size=(n, 3))
    if features is None:
        features = rng.normal(size=(n, 3))
    return SelectionContext(
        graph=graph,
        adj=build_normalized_adjacency(graph),
        features=features,
        embeddings=embeddings,
        probabilities=probabilities,
        pool=tuple(pool if pool is not None else range(n)),
        history=dict(history or {}),
        k=k,
        rng_seed=seed,
    )


class TestSelectionContract:
    def test_every_strategy_returns_k_distinct_pool_nodes(self):
        for seed in range(10):
            ctx = make_ctx(pool=(0, 2, 3, 5, 6, 8), k=3, seed=seed)
            for name in STRATEGY_NAMES:
                chosen = select(name, ctx).chosen
                if name == "no_al":
                    assert chosen == ()
                    continue
                assert len(chosen) == 3
                assert len(set(chosen)) == 3
                assert set(chosen) <= {0, 2, 3, 5, 6, 8}

    def test_deterministic_under_seed_replay(self):
        for seed in range(10):
            ctx_a = make_ctx(k=3, seed=seed)
            ctx_b = make_ctx(k=3, seed=seed)
            for name in STRATEGY_NAMES:
                assert select(name, ctx_a).chosen == select(name, ctx_b).chosen

    def test_k_must_fit_pool(self):
        with pytest.raises(ValueError):
            make_ctx(pool=(0, 1), k=3)


class TestRandom:
    def test_full_budget_takes_whole_pool(self):
        ctx = make_ctx(pool=(1, 3, 5), k=3)
        assert sorted(select("random", ctx).chosen) == [1, 3, 5]

    def test_same_seed_same_selection(self):
        a = select("random", make_ctx(k=4, seed=11)).chosen
        b = select("random", make_ctx(k=4, seed=11)).chosen
        assert a == b

    def test_uniform_frequencies_over_many_draws(self):
        pool = (0, 1, 2, 3, 4)
        counts = dict.fromkeys(pool, 0)
        for seed in range(10000):
            ctx = make_ctx(pool=pool, k=1, seed=seed)
            counts[select("random", ctx).chosen[0]] += 1
        for node in pool:
            assert abs(counts[node] / 10000 - 0.2) < 0.02


class TestUncertainty:
    def test_most_uncertain_row_wins_for_all_variants(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]] + [[0.99, 0.01]] * 7)
        for variant in ("entropy", "least_confidence", "margin"):
            ctx = make_ctx(pool=(0, 1), k=1, probabilities=probs)
            assert select_uncertainty(ctx, variant).chosen == (0,)

    def test_entropy_of_even_split_is_ln2(self):
        assert abs(row_entropy(np.array([[0.5, 0.5]]))[0] - np.log(2)) < 1e-12

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p1 = rng.uniform(0.01, 0.99, size=9)
            probs = np.column_stack([1 - p1, p1])
            pool = tuple(sorted(rng.choice(9, size=6, replace=False).tolist()))
            ctx = make_ctx(pool=pool, k=3, probabilities=probs)
            for variant in ("entropy", "least_confidence", "margin"):
                got = select_uncertainty(ctx, variant).chosen
                if variant == "entropy":
                    raw = {v: -(p1[v] * np.log(p1[v]) + (1 - p1[v]) * np.log(1 - p1[v])) for v in pool}
                elif variant == "least_confidence":
                    raw = {v: 1 - max(p1[v], 1 - p1[v]) for v in pool}
                else:
                    raw = {v: -abs(p1[v] - (1 - p1[v])) for v in pool}
                want = tuple(sorted(pool, key=lambda v: (-raw[v], v))[:3])
                assert got == want, variant

    def test_nan_rows_rejected(self):
        probs = np.full((9, 2), 0.5)
        probs[3, 0] = np.nan
        ctx = make_ctx(pool=(2, 3, 4), k=1, probabilities=probs)
        with pytest.raises(ValueError):
            select_uncertainty(ctx, "entropy")

    def test_raising_entropy_keeps_a_selected_node(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            p1 = rng.uniform(0.05, 0.95, size=9)
            probs = np.column_stack([1 - p1, p1])
            ctx = make_ctx(k=3, probabilities=probs)
            chosen = select_uncertainty(ctx, "entropy").chosen
            node = chosen[-1]
            boosted = probs.copy()
            boosted[node] = [0.5, 0.5]  # maximal entropy
            ctx2 = make_ctx(k=3, probabilities=boosted)
            assert node in select_uncertainty(ctx2, "entropy").chosen


class TestCentralityStrategies:
    def test_star_center_first(self):
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        ctx = make_ctx(graph=star, k=1)
        assert select("degree", ctx).chosen == (0,)
        assert select("pagerank", ctx).chosen == (0,)

    def test_ties_break_to_smaller_ids(self):
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        ctx = make_ctx(graph=k3, k=2)
        assert select("degree", ctx).chosen == (0, 1)
        assert select("pagerank", ctx).chosen == (0, 1)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            edges = [(u, v) for u in range(8) for v in range(u + 1, 8) if rng.random() < 0.4]
            g = Graph.from_edges(8, edges)
            pool = tuple(sorted(rng.choice(8, size=6, replace=False).tolist()))
            ctx = make_ctx(graph=g, pool=pool, k=3)
            deg = degree_centrality(g).values
            want = tuple(sorted(pool, key=lambda v: (-deg[v], v))[:3])
            assert select("degree", ctx).chosen == want
            pr = pagerank(g).values
            want = tuple(sorted(pool, key=lambda v: (-pr[v], v))[:3])
            assert select("pagerank", ctx).chosen == want

    def test_scaling_scores_leaves_top_k_unchanged(self):
        pool = np.arange(4)
        scores = np.array([0.3, 0.1, 0.9, 0.3])
        assert top_k_by_score(pool, scores, 2).tolist() == top_k_by_score(
            pool, 7.5 * scores, 2
        ).tolist()

    def test_top_k_matches_sort_of_a_score_dict(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            pool = np.sort(rng.choice(20, size=int(rng.integers(1, 21)), replace=False))
            # few distinct values, signed zeros among them, so ties are common
            scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=pool.size)
            k = int(rng.integers(1, pool.size + 1))
            by_node = dict(zip(pool.tolist(), scores.tolist()))
            want = sorted(by_node, key=lambda v: (-by_node[v], v))[:k]
            assert top_k_by_score(pool, scores, k).tolist() == want

    def test_static_graph_means_stationary_selection(self):
        selections = set()
        for day_seed in range(6):
            ctx = make_ctx(k=3, seed=day_seed)  # embeddings/probabilities vary
            selections.add(select("degree", ctx).chosen)
        assert len(selections) == 1


class TestDensity:
    def test_two_blobs_one_pick_each(self):
        emb = np.array(
            [[0.0, 0.0], [0.4, 0.0], [0.2, 0.3], [10.0, 10.0], [10.4, 10.0], [10.2, 10.3]]
        )
        emb = np.hstack([emb, np.zeros((6, 1))])
        ctx = make_ctx(graph=BRIDGED_TRIANGLES, pool=range(6), k=2, embeddings=emb)
        chosen = set(select("density", ctx).chosen)
        assert len(chosen & {0, 1, 2}) == 1
        assert len(chosen & {3, 4, 5}) == 1
        # nearest node to each blob mean: (0.2, 0.1) -> node 2; likewise node 5
        assert chosen == {2, 5}

    def test_k1_picks_node_nearest_pool_centroid(self):
        emb = np.array([[0.0], [1.0], [2.0], [3.0], [4.0], [11.0]])
        ctx = make_ctx(graph=BRIDGED_TRIANGLES, pool=range(6), k=1, embeddings=emb)
        centroid = emb.mean()
        want = int(np.abs(emb[:, 0] - centroid).argmin())
        assert select("density", ctx).chosen == (want,)

    def test_duplicate_embeddings_still_distinct(self):
        emb = np.zeros((9, 2))
        ctx = make_ctx(pool=range(9), k=4, embeddings=emb)
        chosen = select("density", ctx).chosen
        assert len(set(chosen)) == 4


class TestCoreset:
    def test_empty_history_line_geometry(self):
        emb = np.array([[0.0], [1.0], [10.0]] + [[5.0]] * 6)
        ctx = make_ctx(pool=(0, 1, 2), k=2, embeddings=emb)
        assert sorted(select("coreset", ctx).chosen) == [0, 2]

    def test_history_counts_as_covered(self):
        emb = np.array([[0.0], [1.0], [10.0]] + [[5.0]] * 6)
        ctx = make_ctx(pool=(0, 1, 2), k=1, embeddings=emb, history={2: (3,)})
        assert select("coreset", ctx).chosen == (0,)

    def test_matches_direct_kcenter_call(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            emb = rng.normal(size=(9, 2))
            pool = tuple(sorted(rng.choice(9, size=8, replace=False).tolist()))
            hist_nodes = rng.choice(pool, size=2, replace=False)
            history = {int(v): (1,) for v in hist_nodes}
            ctx = make_ctx(pool=pool, k=3, embeddings=emb, history=history, seed=3)
            got = select("coreset", ctx).chosen
            points = emb[list(pool)]
            pre = [pool.index(v) for v in sorted(history)]
            picks = kcenter_greedy(points, 3, pre)
            want = tuple(pool[i] for i in picks)
            assert got == want


class TestFeatprop:
    def test_edgeless_graph_equals_density_on_raw_features(self):
        g = Graph.from_edges(6, [])
        rng = np.random.default_rng(11)
        feats = rng.normal(size=(6, 3))
        ctx = make_ctx(graph=g, pool=range(6), k=2, embeddings=feats, features=feats, seed=5)
        assert select("featprop", ctx).chosen == select("density", ctx).chosen

    def test_total_tie_takes_smallest_ids(self):
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        rng = np.random.default_rng(12)
        feats = rng.normal(size=(3, 2))  # propagation maps every row to the mean
        ctx = make_ctx(graph=k3, pool=range(3), k=2, features=feats)
        assert select("featprop", ctx).chosen == (0, 1)

    def test_sbm_toy_selects_one_per_community(self):
        config = SyntheticConfig(node_count=20, community_count=2, days=4, p_in=0.7, p_out=0.02)
        dataset = generate_synthetic(config, seed=2)
        truth = synthetic_communities(config)
        frame = dataset.days[0]
        ctx = make_ctx(
            graph=dataset.graph,
            pool=range(20),
            k=2,
            features=frame.features,
            seed=4,
        )
        chosen = select("featprop", ctx).chosen
        assert {truth[v] for v in chosen} == {0, 1}


class TestBudgetAllocation:
    def test_equal_communities_split_evenly(self):
        assert allocate_budget(2, {0: 5, 1: 5}) == {0: 1, 1: 1}

    def test_largest_remainder_tie_prefers_smaller_id(self):
        assert allocate_budget(1, {0: 5, 1: 5}) == {0: 1, 1: 0}

    def test_zero_pool_communities_get_nothing(self):
        assert allocate_budget(3, {0: 4, 1: 0, 2: 2}) == {0: 2, 2: 1}

    def test_remainders_go_to_largest_quota_fractions(self):
        assert allocate_budget(4, {0: 30, 1: 2, 2: 1}) == {0: 4, 1: 0, 2: 0}
        assert allocate_budget(5, {0: 6, 1: 5, 2: 4}) == {0: 2, 1: 2, 2: 1}

    def test_full_budget_matches_pool_sizes_exactly(self):
        assert allocate_budget(7, {0: 4, 1: 2, 2: 1}) == {0: 4, 1: 2, 2: 1}

    def test_allocations_never_exceed_pool_sizes(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            sizes = {c: int(rng.integers(0, 9)) for c in range(int(rng.integers(2, 6)))}
            total = sum(sizes.values())
            if total == 0:
                continue
            k = int(rng.integers(1, total + 1))
            alloc = allocate_budget(k, sizes)
            assert sum(alloc.values()) == k
            assert all(alloc[c] <= sizes[c] for c in alloc)

    def test_budget_larger_than_pool_rejected(self):
        with pytest.raises(ValueError):
            allocate_budget(5, {0: 2, 1: 2})


class TestGraphPart:
    def test_two_equal_communities_one_each(self):
        ctx = make_ctx(graph=BRIDGED_TRIANGLES, pool=range(6), k=2)
        chosen = select("graphpart", ctx).chosen
        assert len(set(chosen) & {0, 1, 2}) == 1
        assert len(set(chosen) & {3, 4, 5}) == 1

    def test_k1_is_medoid_of_largest_community_pool(self):
        emb = np.arange(12.0).reshape(6, 2)
        ctx = make_ctx(
            graph=BRIDGED_TRIANGLES, pool=(0, 1, 2, 3), k=1, embeddings=emb
        )
        # community 0 = {0,1,2} has the larger pool; its 1-medoid is node 1
        want = kmedoids(emb[[0, 1, 2]], 1)[0]
        assert select("graphpart", ctx).chosen == ((0, 1, 2)[want],)

    def test_bridged_triangles_full_pool_matches_per_community_medoids(self):
        rng = np.random.default_rng(13)
        emb = rng.normal(size=(6, 2))
        ctx = make_ctx(graph=BRIDGED_TRIANGLES, pool=range(6), k=2, embeddings=emb)
        chosen = select("graphpart", ctx).chosen
        want = []
        for members in ([0, 1, 2], [3, 4, 5]):
            idx = kmedoids(emb[members], 1)[0]
            want.append(members[idx])
        assert list(chosen) == want


class TestGraphPartFar:
    def test_identical_embeddings_degenerate_to_graphpart(self):
        emb = np.ones((6, 2))
        ctx = make_ctx(graph=BRIDGED_TRIANGLES, pool=range(6), k=2, embeddings=emb)
        assert select("graphpartfar", ctx).chosen == select("graphpart", ctx).chosen

    def test_diversity_radius_is_half_median_pairwise_distance(self):
        assert oracle_diversity_radius([[0.0], [1.0], [10.0]]) == 4.5

    def test_history_on_medoid_pushes_to_farthest(self):
        # embeddings 0, 0.4, 3 | 5, 5.4, 8: median pairwise distance 3, radius 1.5;
        # community medoids are nodes 1 and 4
        emb = np.array([[0.0], [0.4], [3.0], [5.0], [5.4], [8.0]])
        plain_ctx = make_ctx(graph=BRIDGED_TRIANGLES, pool=range(6), k=2, embeddings=emb)
        assert select("graphpart", plain_ctx).chosen == (1, 4)
        assert oracle_diversity_radius(emb) == 1.5
        ctx = make_ctx(
            graph=BRIDGED_TRIANGLES,
            pool=range(6),
            k=2,
            embeddings=emb,
            history={1: (1,)},
        )
        # node 1 is too close to its own history entry; node 2 is the
        # community's farthest-from-selected and clears the radius
        assert select("graphpartfar", ctx).chosen == (2, 4)

    def test_fallback_to_medoid_when_everything_is_close(self):
        # community 0 is tightly packed: even its farthest node is inside
        # the radius, so the original medoid stands
        emb = np.array([[0.0], [0.1], [0.2], [5.0], [5.4], [8.0]])
        ctx = make_ctx(
            graph=BRIDGED_TRIANGLES,
            pool=range(6),
            k=2,
            embeddings=emb,
            history={1: (1,)},
        )
        chosen = select("graphpartfar", ctx).chosen
        assert chosen[0] == 1


class TestAge:
    def test_pure_pagerank_weights_reduce_to_pagerank(self):
        ctx = make_ctx(k=3, seed=6)
        assert select_age(ctx, (0.0, 0.0, 1.0)).chosen == select("pagerank", ctx).chosen

    def test_pure_entropy_weights_reduce_to_entropy(self):
        ctx = make_ctx(k=3, seed=6)
        assert select_age(ctx, (1.0, 0.0, 0.0)).chosen == select_uncertainty(ctx, "entropy").chosen

    def test_matches_score_table_recomputation(self):
        rng = np.random.default_rng(14)
        g = BRIDGED_TRIANGLES
        p1 = rng.uniform(0.1, 0.9, size=6)
        probs = np.column_stack([1 - p1, p1])
        emb = rng.normal(size=(6, 2))
        ctx = make_ctx(graph=g, pool=range(6), k=2, probabilities=probs, embeddings=emb, seed=21)
        got = select_age(ctx).chosen

        ent = -(p1 * np.log(p1) + (1 - p1) * np.log(1 - p1))
        centroids, assignment = kmeans(emb, 2, 21)
        dens = -np.sqrt(((emb - centroids[assignment]) ** 2).sum(axis=1))
        pr = pagerank(g).values

        def pct(values):
            return (rankdata(values, method="average") - 1) / (len(values) - 1)

        third = 1 / 3
        combined = third * pct(ent) + third * pct(dens) + third * pct(pr)
        want = tuple(sorted(range(6), key=lambda v: (-combined[v], v))[:2])
        assert got == want

    def test_weights_must_sum_to_one(self):
        ctx = make_ctx(k=2)
        with pytest.raises(ValueError):
            select_age(ctx, (0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            select_age(ctx, (1.2, -0.1, -0.1))


class TestNoAl:
    def test_always_empty(self):
        ctx = make_ctx(k=3)
        assert select("no_al", ctx).chosen == ()
        assert select("no_al", ctx).chosen == ()


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        select("oracle", make_ctx())


def test_partition_modularity_on_test_graph():
    part = modularity_partition(BRIDGED_TRIANGLES)
    assert part.community_of.tolist() == [0, 0, 0, 1, 1, 1]
