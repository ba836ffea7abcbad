import warnings

import numpy as np
import pytest

from galstream import (
    Graph,
    GcnParams,
    SyntheticConfig,
    TrainConfig,
    TrainingDivergedError,
    build_normalized_adjacency,
    embed,
    forward,
    generate_synthetic,
    init_params,
    loss_and_gradients,
    make_split,
    train,
)


def random_setup(rng, n=6, d=3, hidden=4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    g = Graph.from_edges(n, edges)
    adj = build_normalized_adjacency(g)
    x = rng.normal(size=(n, d))
    labels = rng.integers(0, 2, size=n)
    mask = sorted(rng.choice(n, size=max(1, n // 2), replace=False).tolist())
    params = GcnParams(rng.normal(scale=0.5, size=(d, hidden)), rng.normal(scale=0.5, size=(hidden, 2)))
    return adj, x, labels, mask, params


class TestNormalizedAdjacency:
    def test_single_edge(self):
        adj = build_normalized_adjacency(Graph.from_edges(2, [(0, 1)]))
        assert np.allclose(adj.matrix, 0.5)

    def test_isolated_node_keeps_unit_self_loop(self):
        adj = build_normalized_adjacency(Graph.from_edges(3, [(0, 1)]))
        assert adj.matrix[2, 2] == 1.0
        assert adj.matrix[2, :2].tolist() == [0.0, 0.0]

    def test_triangle_uniform(self):
        adj = build_normalized_adjacency(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
        assert np.allclose(adj.matrix, 1 / 3)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        adj, *_ = random_setup(rng, n=8)
        assert np.allclose(adj.matrix, adj.matrix.T)


class TestForward:
    def test_zero_weights_give_uniform_probabilities(self):
        rng = np.random.default_rng(1)
        adj, x, *_ = random_setup(rng)
        params = GcnParams(np.zeros((3, 4)), np.zeros((4, 2)))
        out = forward(params, adj, x)
        assert np.allclose(out.probabilities, 0.5)

    def test_single_isolated_node_reduces_to_mlp(self):
        adj = build_normalized_adjacency(Graph.from_edges(1, []))
        rng = np.random.default_rng(2)
        params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
        x = rng.normal(size=(1, 3))
        out = forward(params, adj, x)
        hidden = np.maximum(x @ params.w1, 0.0)
        logits = hidden @ params.w2
        expected = np.exp(logits) / np.exp(logits).sum()
        assert np.abs(out.probabilities - expected).max() < 1e-12

    def test_matches_plain_reimplementation(self):
        rng = np.random.default_rng(3)
        adj, x, _, _, params = random_setup(rng)
        out = forward(params, adj, x)
        a = adj.matrix
        hidden = np.maximum(a @ x @ params.w1, 0.0)
        logits = a @ hidden @ params.w2
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.abs(out.probabilities - probs).max() < 1e-12
        assert np.abs(out.hidden - hidden).max() < 1e-12

    def test_probability_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            adj, x, _, _, params = random_setup(rng)
            out = forward(params, adj, x)
            assert np.abs(out.probabilities.sum(axis=1) - 1.0).max() < 1e-9

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        adj, x, _, _, params = random_setup(rng)
        with pytest.raises(ValueError):
            forward(params, adj, x[:, :2])


class TestLossAndGradients:
    def test_uniform_prediction_loss_is_ln2(self):
        rng = np.random.default_rng(6)
        adj, x, labels, _, _ = random_setup(rng)
        params = GcnParams(np.zeros((3, 4)), np.zeros((4, 2)))
        loss, grads = loss_and_gradients(params, adj, [(x, labels, [2])])
        assert abs(loss - np.log(2)) < 1e-12

    def test_confident_correct_prediction_has_zero_loss_and_gradients(self):
        # saturating weights drive the masked node's true-class probability to 1
        adj = build_normalized_adjacency(Graph.from_edges(2, []))
        x = np.array([[1.0], [-1.0]])
        labels = np.array([1, 0])
        params = GcnParams(np.array([[50.0]]), np.array([[-60.0, 60.0]]))
        loss, grads = loss_and_gradients(params, adj, [(x, labels, [0])])
        assert loss == 0.0
        assert np.abs(grads.w1).max() == 0.0
        assert np.abs(grads.w2).max() == 0.0

    def test_empty_mask_rejected(self):
        rng = np.random.default_rng(7)
        adj, x, labels, _, params = random_setup(rng)
        with pytest.raises(ValueError):
            loss_and_gradients(params, adj, [(x, labels, [])])

    @pytest.mark.parametrize(
        "label, mask", [(1, [2, 2]), (-1, [2]), (2, [2]), (-2, [2])]
    )
    def test_malformed_mask_or_label_rejected(self, label, mask):
        rng = np.random.default_rng(8)
        adj, x, labels, _, params = random_setup(rng)
        labels[2] = label
        with pytest.raises(ValueError):
            loss_and_gradients(params, adj, [(x, labels, mask)])

    def test_gradients_match_central_finite_differences(self):
        # batches of 1-3 day-examples with unequal masks, so the per-row
        # weight 1 / (mask size * examples) that train applies is checked too
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            adj, x, labels, mask, params = random_setup(rng)
            n, d = x.shape
            examples = [(x, labels, mask)]
            for _ in range(rng.integers(0, 3)):
                size = int(rng.integers(1, n + 1))
                examples.append(
                    (
                        rng.normal(size=(n, d)),
                        rng.integers(0, 2, size=n),
                        rng.choice(n, size=size, replace=False).tolist(),
                    )
                )
            loss, grads = loss_and_gradients(params, adj, examples)
            want = np.mean(
                [
                    -np.log(forward(params, adj, xe).probabilities[m, ye[m]]).mean()
                    for xe, ye, m in examples
                ]
            )
            assert abs(loss - want) < 1e-12
            for w, gw in ((params.w1, grads.w1), (params.w2, grads.w2)):
                flat = w.ravel()
                gflat = gw.ravel()
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up, _ = loss_and_gradients(params, adj, examples)
                    flat[idx] = orig - h
                    down, _ = loss_and_gradients(params, adj, examples)
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    if abs(gflat[idx]) > 1e-8:
                        assert abs(fd - gflat[idx]) / abs(gflat[idx]) < 1e-4


def noiseless_toy():
    config = SyntheticConfig(node_count=12, days=4, noise=0.0)
    dataset = generate_synthetic(config, seed=5)
    frame = dataset.days[0]
    adj = build_normalized_adjacency(dataset.graph)
    mask = list(range(12))
    return adj, frame.features, frame.labels, mask


class TestTrain:
    def test_zero_epochs_returns_initialization(self):
        adj, x, labels, mask = noiseless_toy()
        hyper = TrainConfig(hidden_dim=8, epochs=0)
        params = train(9, adj, [(x, labels, mask)], hyper)
        init = init_params(9, x.shape[1], 8)
        assert np.array_equal(params.w1, init.w1)
        assert np.array_equal(params.w2, init.w2)

    def test_deterministic_given_seed(self):
        adj, x, labels, mask = noiseless_toy()
        hyper = TrainConfig(hidden_dim=8, epochs=40, learning_rate=0.1)
        a = train(9, adj, [(x, labels, mask)], hyper)
        b = train(9, adj, [(x, labels, mask)], hyper)
        assert np.array_equal(a.w1, b.w1) and np.array_equal(a.w2, b.w2)

    def test_separable_toy_reaches_full_training_accuracy(self):
        adj, x, labels, mask = noiseless_toy()
        hyper = TrainConfig(hidden_dim=16, epochs=500, learning_rate=0.1)
        params = train(10, adj, [(x, labels, mask)], hyper)
        pred = forward(params, adj, x).probabilities[:, 1] >= 0.5
        assert (pred.astype(int) == labels).all()

    def test_loss_never_increases_at_small_step_size(self):
        adj, x, labels, mask = noiseless_toy()
        losses = []
        for epochs in range(0, 120, 5):
            hyper = TrainConfig(hidden_dim=8, epochs=epochs, learning_rate=0.01)
            params = train(11, adj, [(x, labels, mask)], hyper)
            loss, _ = loss_and_gradients(params, adj, [(x, labels, mask)])
            losses.append(loss)
        for before, after in zip(losses, losses[1:]):
            assert after <= before + 1e-6

    def test_huge_step_size_raises_diverged_without_warnings(self):
        adj, x, labels, mask = noiseless_toy()
        hyper = TrainConfig(hidden_dim=8, epochs=200, learning_rate=1e6)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError):
                train(9, adj, [(x, labels, mask)], hyper)

    def test_requires_an_example(self):
        adj, *_ = noiseless_toy()
        with pytest.raises(ValueError):
            train(0, adj, [], TrainConfig())


class TestEmbed:
    def test_direct_mode_on_edgeless_graph_is_identity(self):
        adj = build_normalized_adjacency(Graph.from_edges(3, []))
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(embed("direct", None, adj, x), x)

    def test_direct_mode_on_triangle_averages_rows(self):
        adj = build_normalized_adjacency(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
        x = np.array([[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
        out = embed("direct", None, adj, x)
        assert np.abs(out - x.mean(axis=0)).max() < 1e-12

    def test_model_based_equals_hidden_recomputation(self):
        rng = np.random.default_rng(12)
        adj, x, _, _, params = random_setup(rng)
        out = embed("model_based", params, adj, x)
        want = np.maximum(adj.matrix @ x @ params.w1, 0.0)
        assert np.abs(out - want).max() < 1e-12

    def test_model_based_requires_params(self):
        rng = np.random.default_rng(13)
        adj, x, *_ = random_setup(rng)
        with pytest.raises(ValueError):
            embed("model_based", None, adj, x)

    def test_unknown_mode_rejected(self):
        rng = np.random.default_rng(14)
        adj, x, *_ = random_setup(rng)
        with pytest.raises(ValueError):
            embed("spectral", None, adj, x)


def test_forward_equivariance_under_relabeling():
    rng = np.random.default_rng(15)
    n = 7
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    g = Graph.from_edges(n, edges)
    x = rng.normal(size=(n, 3))
    params = GcnParams(rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    perm = rng.permutation(n)
    g2 = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges])
    x2 = np.empty_like(x)
    x2[perm] = x
    out1 = forward(params, build_normalized_adjacency(g), x)
    out2 = forward(params, build_normalized_adjacency(g2), x2)
    assert np.abs(out2.probabilities[perm] - out1.probabilities).max() < 1e-10
    assert np.abs(out2.hidden[perm] - out1.hidden).max() < 1e-10
