import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galstream import (
    EvalSlice,
    UndefinedMetricError,
    accuracy,
    auc_pr,
    auc_roc,
    compute_metric,
    cpi,
    f1_macro,
    f1_micro,
    precision,
    recall,
    rolling_mean_std,
)


def make_slice(truth, scores):
    scores = np.asarray(scores, dtype=float)
    probs = np.column_stack([1.0 - scores, scores])
    return EvalSlice(np.asarray(truth), probs)


class TestThresholdMetrics:
    def test_perfect_predictions_score_one_everywhere(self):
        s = make_slice([1, 0, 1, 0], [0.9, 0.1, 0.8, 0.2])
        for name in ("accuracy", "precision", "recall", "f1_micro", "f1_macro"):
            assert compute_metric(s, name) == 1.0

    def test_confusion_matrix_hand_count(self):
        s = make_slice([1, 1, 0, 0], [0.9, 0.4, 0.6, 0.1])
        assert accuracy(s) == 0.5
        assert precision(s) == 0.5
        assert recall(s) == 0.5

    def test_absent_class_macro_rule(self):
        s = make_slice([1, 1, 1], [0.9, 0.8, 0.7])
        assert recall(s) == 1.0
        assert f1_macro(s) == 0.5  # class 0 absent everywhere contributes 0

    def test_micro_f1_equals_accuracy(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            s = make_slice(rng.integers(0, 2, size=n), rng.random(n))
            assert abs(f1_micro(s) - accuracy(s)) < 1e-12

    def test_empty_slice_rejected(self):
        with pytest.raises(UndefinedMetricError):
            EvalSlice(np.array([], dtype=int), np.zeros((0, 2)))


def auc_roc_pair_oracle(truth, scores):
    pos = [s for t, s in zip(truth, scores) if t == 1]
    neg = [s for t, s in zip(truth, scores) if t == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def auc_pr_sweep_oracle(truth, scores):
    truth = np.asarray(truth)
    scores = np.asarray(scores, dtype=float)
    n_pos = int(truth.sum())
    area = 0.0
    prev_recall = 0.0
    for thr in sorted(set(scores), reverse=True):
        pred = scores >= thr
        tp = int((pred & (truth == 1)).sum())
        rec = tp / n_pos
        prec = tp / int(pred.sum())
        area += (rec - prev_recall) * prec
        prev_recall = rec
    return area


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc(make_slice([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_all_tied_scores(self):
        assert auc_roc(make_slice([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])) == 0.5

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(4, 15))
            truth = rng.integers(0, 2, size=n)
            if truth.min() == truth.max():
                continue
            scores = rng.integers(0, 5, size=n) / 4.0  # force ties
            got = auc_roc(make_slice(truth, scores))
            assert abs(got - auc_roc_pair_oracle(truth, scores)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc_roc(make_slice([1, 1], [0.3, 0.4]))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 2, size=12)
        truth[0], truth[1] = 0, 1
        scores = rng.random(12)
        a = auc_roc(make_slice(truth, scores))
        b = auc_roc(make_slice(truth, 1 / (1 + np.exp(-5 * scores))))
        assert abs(a - b) < 1e-12


class TestAucPr:
    def test_perfect_ranking(self):
        assert auc_pr(make_slice([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])) == 1.0

    def test_single_positive_ranked_last(self):
        assert auc_pr(make_slice([0, 0, 0, 1], [0.9, 0.8, 0.7, 0.1])) == 0.25

    def test_matches_threshold_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(3, 15))
            truth = rng.integers(0, 2, size=n)
            if truth.sum() == 0:
                continue
            scores = rng.integers(0, 6, size=n) / 5.0
            got = auc_pr(make_slice(truth, scores))
            assert abs(got - auc_pr_sweep_oracle(truth, scores)) < 1e-12

    def test_no_positives_rejected(self):
        with pytest.raises(UndefinedMetricError):
            auc_pr(make_slice([0, 0], [0.3, 0.4]))


class TestCpi:
    def test_constant_one_is_one(self):
        for t in (2, 3, 10):
            assert cpi(np.arange(t), np.ones(t)) == 1.0

    def test_constant_maps_to_itself(self):
        assert abs(cpi(np.arange(4), np.full(4, 0.37)) - 0.37) < 1e-12

    def test_tent_series_by_hand(self):
        assert abs(cpi(np.arange(3), np.array([0.0, 1.0, 0.0])) - 0.5) < 1e-12

    def test_spacing_other_than_one_is_normalized_away(self):
        assert abs(cpi(np.array([0, 3, 6]), np.array([0.2, 0.4, 0.6])) - 0.4) < 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            cpi(np.array([0]), np.array([0.5]))

    def test_nonuniform_spacing_rejected(self):
        with pytest.raises(ValueError):
            cpi(np.array([0, 1, 3]), np.array([0.5, 0.5, 0.5]))

    def test_bounded_by_series_extremes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            values = rng.random(int(rng.integers(2, 12)))
            c = cpi(np.arange(values.size), values)
            assert values.min() - 1e-12 <= c <= values.max() + 1e-12


class TestRolling:
    def test_window_one_is_identity(self):
        values = np.array([0.2, 0.9, 0.4])
        means, stds = rolling_mean_std(values, 1)
        assert np.allclose(means, values)
        assert np.allclose(stds, 0.0)

    def test_constant_series(self):
        means, stds = rolling_mean_std(np.full(4, 0.6), 3)
        assert np.allclose(means, 0.6)
        assert np.allclose(stds, 0.0)

    def test_hand_arithmetic(self):
        means, _ = rolling_mean_std(np.array([0.1, 0.2, 0.3, 0.4]), 2)
        assert np.allclose(means, [0.1, 0.15, 0.25, 0.35])

    def test_window_validation(self):
        with pytest.raises(ValueError):
            rolling_mean_std(np.array([0.5, 0.5]), 0)


@settings(max_examples=40, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 1), st.floats(0.0, 1.0)), min_size=2, max_size=12
    ),
    seed=st.integers(0, 2**16),
)
def test_metrics_invariant_under_node_permutation(data, seed):
    truth = np.array([t for t, _ in data])
    scores = np.array([s for _, s in data])
    perm = np.random.default_rng(seed).permutation(len(data))
    original = make_slice(truth, scores)
    shuffled = make_slice(truth[perm], scores[perm])
    for name in ("accuracy", "precision", "recall", "f1_micro", "f1_macro"):
        assert compute_metric(original, name) == compute_metric(shuffled, name)
    if 0 < truth.sum() < len(data):
        assert abs(auc_roc(original) - auc_roc(shuffled)) < 1e-12
    if truth.sum() > 0:
        assert abs(auc_pr(original) - auc_pr(shuffled)) < 1e-12
