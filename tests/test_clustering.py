import itertools

import numpy as np
import pytest

from galstream import kcenter_greedy, kmeans, kmedoids


def sse(points, assignment, k):
    total = 0.0
    for j in range(k):
        members = points[assignment == j]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def optimal_two_cluster_sse(points):
    n = len(points)
    best = np.inf
    for size in range(1, n):
        for left in itertools.combinations(range(n), size):
            mask = np.zeros(n, dtype=bool)
            mask[list(left)] = True
            a, b = points[mask], points[~mask]
            cost = ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
            best = min(best, cost)
    return best


class TestKmeans:
    def test_separated_pairs_find_pair_means(self):
        points = np.array([[0.0, 0.0], [0.2, 0.0], [9.0, 9.0], [9.2, 9.0]])
        centroids, assignment = kmeans(points, 2, seed=0)
        got = sorted(centroids.tolist())
        assert np.allclose(got, [[0.1, 0.0], [9.1, 9.0]])
        assert assignment[0] == assignment[1] != assignment[2] == assignment[3]

    def test_k_equals_n_returns_the_points(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(5, 2))
        centroids, assignment = kmeans(points, 5, seed=1)
        assert sorted(map(tuple, centroids.tolist())) == sorted(map(tuple, points.tolist()))
        assert sorted(assignment.tolist()) == list(range(5))

    def test_reaches_exhaustive_optimum_on_separated_data(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            blob_a = rng.normal(0.0, 0.3, size=(3, 2))
            blob_b = rng.normal(6.0, 0.3, size=(3, 2))
            points = np.vstack([blob_a, blob_b])
            centroids, assignment = kmeans(points, 2, seed=3)
            assert sse(points, assignment, 2) <= optimal_two_cluster_sse(points) + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(12, 3))
        a = kmeans(points, 4, seed=9)
        b = kmeans(points, 4, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_duplicate_points_still_fill_k_clusters(self):
        points = np.zeros((6, 2))
        centroids, assignment = kmeans(points, 3, seed=0)
        assert len(set(assignment.tolist())) == 3

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4, seed=0)


class TestKmedoids:
    def test_collinear_points_pick_the_middle(self):
        points = np.array([[0.0], [1.0], [10.0]])
        assert kmedoids(points, 1).tolist() == [1]

    def test_k_equals_n_selects_everything(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(4, 2))
        assert kmedoids(points, 4).tolist() == [0, 1, 2, 3]

    def test_matches_exhaustive_pair_search(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            points = rng.normal(size=(7, 2))
            dist = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
            best = min(
                dist[list(pair)].min(axis=0).sum()
                for pair in itertools.combinations(range(7), 2)
            )
            got = kmedoids(points, 2)
            assert abs(dist[got].min(axis=0).sum() - best) < 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(9, 3))
        assert kmedoids(points, 3).tolist() == kmedoids(points, 3).tolist()


class TestKcenterGreedy:
    def test_line_endpoints(self):
        points = np.array([[0.0], [1.0], [10.0]])
        assert sorted(kcenter_greedy(points, 2).tolist()) == [0, 2]

    def test_preselected_single_point_yields_farthest(self):
        points = np.array([[0.0], [4.0], [10.0]])
        assert kcenter_greedy(points, 1, preselected=[2]).tolist() == [0]

    def test_new_indices_avoid_preselected(self):
        points = np.array([[0.0], [1.0], [2.0], [3.0]])
        picks = kcenter_greedy(points, 2, preselected=[0, 3])
        assert set(picks.tolist()) <= {1, 2}

    def test_all_preselected_falls_back_to_requery(self):
        points = np.array([[0.0], [1.0]])
        picks = kcenter_greedy(points, 1, preselected=[0, 1])
        assert picks.tolist() == [0]

    def test_covering_radius_within_factor_two_of_optimum(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            points = rng.normal(size=(8, 2))
            dist = np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2))
            optimum = min(
                dist[list(combo)].min(axis=0).max()
                for combo in itertools.combinations(range(8), 3)
            )
            picks = kcenter_greedy(points, 3)
            radius = dist[picks].min(axis=0).max()
            assert radius <= 2.0 * optimum + 1e-9
