import math

import numpy as np
import pytest

from galstream import (
    Graph,
    QueryLog,
    average_time_gap,
    centrality_burden_correlation,
    coverage_ratio,
    mean_normalized_centrality,
    over_exertion,
    sampling_entropy,
    within_gap_percentage,
)
from galstream.burden import burden_quantity, normalized_centrality

STAR5 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def log_from(pool, days_by_node):
    return QueryLog(tuple(pool), {n: tuple(d) for n, d in days_by_node.items()})


# three of eight pool nodes sampled; node gaps: 0 -> (1, 4), 1 -> (), 2 -> (4,)
MIXED_LOG = log_from(range(8), {0: [0, 1, 5], 1: [2], 2: [0, 4]})
# two single queries: no node was re-queried
NO_REQUERY_LOG = log_from(range(4), {0: [0], 1: [1]})


class TestQueryLog:
    def test_counts_and_gaps(self):
        log = log_from(range(8), {4: [0, 6, 7, 9], 0: [1, 3, 4], 2: [2]})
        assert log.total_queries == 8
        assert log.sampled.tolist() == [0, 2, 4]
        assert log.counts.tolist() == [3, 1, 4]
        # node 0 gaps (2, 1), node 4 gaps (6, 1, 2); node 2 has none
        assert log.requeried.tolist() == [0, 4]
        assert log.min_gaps.tolist() == [1, 1]
        assert log.mean_gaps.tolist() == [1.5, 3.0]

    def test_no_requeried_node_has_empty_gap_summary(self):
        assert NO_REQUERY_LOG.sampled.tolist() == [0, 1]
        for array in (NO_REQUERY_LOG.requeried, NO_REQUERY_LOG.min_gaps, NO_REQUERY_LOG.mean_gaps):
            assert array.size == 0
        assert over_exertion(NO_REQUERY_LOG, 3) == 0.0
        with pytest.raises(ValueError, match="at least twice"):
            average_time_gap(NO_REQUERY_LOG)

    def test_rejects_non_pool_node(self):
        with pytest.raises(ValueError):
            log_from([0, 1], {5: [1]})

    def test_rejects_same_day_duplicates(self):
        with pytest.raises(ValueError):
            log_from([0, 1], {0: [2, 2]})

    def test_from_events_sorts_days(self):
        log = QueryLog.from_events([0, 1, 2], [(5, 0), (1, 0), (3, 1)])
        assert log.days_by_node[0] == (1, 5)


class TestSamplingEntropy:
    def test_single_node_always_queried(self):
        assert sampling_entropy(log_from(range(4), {1: [0, 1, 2]})) == 0.0

    def test_uniform_over_eight_nodes(self):
        log = log_from(range(8), {n: [n] for n in range(8)})
        assert abs(sampling_entropy(log) - math.log(8)) < 1e-12

    def test_three_one_counts(self):
        log = log_from(range(4), {0: [0, 1, 2], 1: [0]})
        assert abs(sampling_entropy(log) - 0.5623351446188083) < 1e-12

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            sampling_entropy(log_from(range(4), {}))

    def test_bounded_by_log_unique(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            nodes = rng.choice(10, size=rng.integers(1, 6), replace=False)
            log = log_from(
                range(10),
                {int(n): sorted(rng.choice(30, size=rng.integers(1, 6), replace=False).tolist()) for n in nodes},
            )
            assert sampling_entropy(log) <= math.log(len(log.days_by_node)) + 1e-12


class TestCoverage:
    def test_full_coverage(self):
        assert coverage_ratio(log_from(range(3), {0: [0], 1: [1], 2: [0]})) == 1.0

    def test_empty_log_is_zero(self):
        assert coverage_ratio(log_from(range(3), {})) == 0.0

    def test_three_of_eight(self):
        assert abs(coverage_ratio(MIXED_LOG) - 3 / 8) < 1e-12

    def test_three_of_twenty_four(self):
        log = log_from(range(24), {0: [0], 1: [0], 2: [0]})
        assert abs(coverage_ratio(log) - 0.125) < 1e-12

    def test_monotone_as_days_accumulate(self):
        events = [(0, 1), (1, 3), (2, 1), (3, 0), (4, 4), (5, 3)]
        previous = 0.0
        for end in range(1, len(events) + 1):
            log = QueryLog.from_events(range(6), events[:end])
            value = coverage_ratio(log)
            assert value >= previous
            previous = value


class TestAverageTimeGap:
    def test_consecutive_days(self):
        assert average_time_gap(log_from(range(3), {0: [1, 2, 3]})) == 1.0

    def test_outer_mean_over_nodes(self):
        log = log_from(range(4), {0: [0, 1, 2], 1: [0, 3, 6]})
        assert average_time_gap(log) == 2.0

    def test_mixed_log_mean_of_node_means(self):
        assert average_time_gap(MIXED_LOG) == 3.25  # mean of (2.5, 4.0)

    def test_single_sample_nodes_excluded(self):
        log = log_from(range(4), {0: [0, 2], 1: [5]})
        assert average_time_gap(log) == 2.0

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            log = log_from(
                range(12),
                {
                    int(n): sorted(rng.choice(40, size=int(rng.integers(2, 8)), replace=False).tolist())
                    for n in rng.choice(12, size=5, replace=False)
                },
            )
            per_node = []
            for node, days in log.days_by_node.items():
                diffs = [b - a for a, b in zip(days, days[1:])]
                if diffs:
                    per_node.append(sum(diffs) / len(diffs))
            assert abs(average_time_gap(log) - sum(per_node) / len(per_node)) < 1e-12

    def test_no_requeried_node_rejected(self):
        with pytest.raises(ValueError):
            average_time_gap(log_from(range(3), {0: [1], 1: [2]}))
        with pytest.raises(ValueError):
            average_time_gap(NO_REQUERY_LOG)


class TestWithinGap:
    def test_all_tight_gaps(self):
        log = log_from(range(3), {0: [0, 1], 1: [4, 5]})
        assert within_gap_percentage(log, 2) == 1.0

    def test_all_wide_gaps(self):
        log = log_from(range(3), {0: [0, 5], 1: [1, 6]})
        assert within_gap_percentage(log, 2) == 0.0

    def test_mixed_hand_count(self):
        log = log_from(
            range(6), {0: [0, 1], 1: [0, 4], 2: [0, 2, 9], 3: [1]}
        )
        # min gaps: node0=1, node1=4, node2=2; below 3 -> nodes 0 and 2
        assert abs(within_gap_percentage(log, 3) - 2 / 3) < 1e-12

    def test_mixed_log_thresholds(self):
        # re-queried nodes 0 (min gap 1) and 2 (min gap 4); a gap must be below k
        assert within_gap_percentage(MIXED_LOG, 1) == 0.0
        assert within_gap_percentage(MIXED_LOG, 3) == 0.5

    def test_no_requeried_node_rejected(self):
        for threshold in (1, 2, 3, 4, 5):
            with pytest.raises(ValueError):
                within_gap_percentage(NO_REQUERY_LOG, threshold)

    def test_threshold_validation(self):
        log = log_from(range(2), {0: [0, 1]})
        with pytest.raises(ValueError):
            within_gap_percentage(log, 0)


class TestOverExertion:
    def test_daily_requeries_hit_everyone(self):
        log = log_from(range(8), {n: list(range(10)) for n in range(3)})
        for threshold in (1, 2, 3, 5):
            assert over_exertion(log, threshold) == 1.0

    def test_single_queries_have_no_gaps(self):
        log = log_from(range(8), {n: [n] for n in range(5)})
        assert over_exertion(log, 3) == 0.0
        for threshold in (1, 2, 3, 4, 5):
            assert over_exertion(NO_REQUERY_LOG, threshold) == 0.0

    def test_mixed_log_thresholds(self):
        # only node 0 has a gap <= 3; three nodes were sampled at all
        assert over_exertion(MIXED_LOG, 1) == 1 / 3
        assert over_exertion(MIXED_LOG, 3) == 1 / 3

    def test_mixed_hand_count(self):
        log = log_from(
            range(8),
            {0: [0, 2], 1: [0, 9], 2: [3], 3: [0, 4, 5], 4: [1, 8]},
        )
        # gaps <= 3: node0 (2), node3 (1); sampled nodes: 5
        assert abs(over_exertion(log, 3) - 2 / 5) < 1e-12

    def test_threshold_zero_never_fires_without_same_day_repeats(self):
        log = log_from(range(4), {0: [0, 1, 2], 1: [4, 9]})
        assert over_exertion(log, 0) == 0.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(2)
        log = log_from(
            range(10),
            {int(n): sorted(rng.choice(25, size=4, replace=False).tolist()) for n in range(6)},
        )
        values = [over_exertion(log, t) for t in range(0, 10)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            over_exertion(log_from(range(3), {}), 2)


class TestCorrelation:
    def test_burden_proportional_to_centrality(self):
        g = STAR5
        # query counts proportional to degree centrality
        log = log_from(range(5), {0: list(range(8)), 1: [0, 1], 2: [0, 1], 3: [0, 1], 4: [0, 1]})
        r = centrality_burden_correlation(log, g, "degree", "query_count", "pearson")
        assert abs(r - 1.0) < 1e-12

    def test_spearman_monotone_invariance(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3)])
        log = log_from(range(6), {n: list(range(n + 1)) for n in range(6)})
        r1 = centrality_burden_correlation(log, g, "degree", "query_count", "spearman")
        # squaring counts preserves order, so spearman is unchanged
        log2 = log_from(range(6), {n: list(range((n + 1) ** 2)) for n in range(6)})
        r2 = centrality_burden_correlation(log2, g, "degree", "query_count", "spearman")
        assert abs(r1 - r2) < 1e-12

    def test_matches_numpy_covariance_oracle(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])
        log = log_from(range(6), {0: [0, 1], 1: [0], 2: [0, 1, 2], 3: [4], 4: [0, 9], 5: [3]})
        x = [len(log.days_by_node[n]) for n in range(6)]
        from galstream import degree_centrality

        want = np.corrcoef(degree_centrality(g).values, x)[0, 1]
        got = centrality_burden_correlation(log, g, "degree", "query_count", "pearson")
        assert abs(got - want) < 1e-12

    def test_zero_variance_rejected(self):
        g = STAR5
        log = log_from(range(5), {n: [0] for n in range(5)})
        with pytest.raises(ValueError):
            # every queried node has count 1 -> zero variance on the burden side
            centrality_burden_correlation(log, g, "degree", "query_count", "pearson")

    def test_needs_three_defined_nodes(self):
        g = STAR5
        log = log_from(range(5), {0: [0, 1], 1: [0, 2]})
        with pytest.raises(ValueError):
            centrality_burden_correlation(log, g, "degree", "min_gap", "pearson")

    def test_gap_quantities(self):
        log = log_from(range(5), {0: [0, 1, 5], 1: [0, 3]})
        nodes, values = burden_quantity(log, "min_gap")
        assert nodes.tolist() == [0, 1] and values.tolist() == [1.0, 3.0]
        nodes, values = burden_quantity(log, "mean_gap")
        assert nodes.tolist() == [0, 1] and values.tolist() == [2.5, 3.0]
        nodes, values = burden_quantity(log, "query_count")
        assert nodes.tolist() == [0, 1, 2, 3, 4]
        assert values.tolist() == [3.0, 2.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError):
            burden_quantity(log, "max_gap")


class TestMeanNormalizedCentrality:
    def test_star_center_specialist_scores_one_on_degree(self):
        logs = {"hub_only": log_from(range(5), {0: list(range(6))})}
        table = mean_normalized_centrality(logs, STAR5)
        assert table["hub_only"]["degree"] == 1.0

    def test_uniform_querying_equals_mean_normalized_value(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)])
        logs = {"uniform": log_from(range(6), {n: [n] for n in range(6)})}
        table = mean_normalized_centrality(logs, g)
        want = normalized_centrality(g, "degree").mean()
        assert abs(table["uniform"]["degree"] - want) < 1e-12

    def test_weighted_mean_oracle(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
        logs = {
            "a": log_from(range(5), {0: [0, 1, 2], 2: [0]}),
            "b": log_from(range(5), {4: [0], 3: [1]}),
        }
        table = mean_normalized_centrality(logs, g)
        norm = normalized_centrality(g, "pagerank")
        want_a = (3 * norm[0] + 1 * norm[2]) / 4
        assert abs(table["a"]["pagerank"] - want_a) < 1e-12

    def test_empty_log_marks_missing(self):
        logs = {"idle": log_from(range(5), {})}
        table = mean_normalized_centrality(logs, STAR5)
        assert all(v is None for v in table["idle"].values())

    def test_constant_centrality_normalizes_to_zero(self):
        k3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert normalized_centrality(k3, "degree").tolist() == [0.0, 0.0, 0.0]


def test_relabeling_invariance():
    rng = np.random.default_rng(3)
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6), (1, 5)])
    log = log_from(range(7), {0: [0, 2], 2: [1], 5: [0, 4, 6]})
    perm = rng.permutation(7)
    g2 = Graph.from_edges(7, [(perm[u], perm[v]) for u, v in g.edges])
    log2 = log_from(range(7), {int(perm[n]): d for n, d in log.days_by_node.items()})
    assert abs(sampling_entropy(log) - sampling_entropy(log2)) < 1e-12
    assert coverage_ratio(log) == coverage_ratio(log2)
    assert average_time_gap(log) == average_time_gap(log2)
    assert over_exertion(log, 2) == over_exertion(log2, 2)
    r1 = centrality_burden_correlation(log, g, "degree", "query_count", "pearson")
    r2 = centrality_burden_correlation(log2, g2, "degree", "query_count", "pearson")
    assert abs(r1 - r2) < 1e-12
