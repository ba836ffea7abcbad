import itertools
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
from galstream.gcn import train_stack


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


# one bad example of each kind, as (features, labels, mask) on random_setup's
# 6-node, 3-feature day, and the message it raised when examples were checked
# one at a time
BAD_EXAMPLES = {
    "shape": (lambda x, y: (x[:, :2], y, [0, 1]), "features must be (6, 3)"),
    "empty": (lambda x, y: (x, y, []), "empty mask"),
    "repeat": (lambda x, y: (x, y, [3, 1, 3]), "mask repeats a node"),
    "missing": (lambda x, y: (x, np.where(np.arange(6) == 4, -1, y), [1, 4]),
                "masked nodes must have labels"),
    "not_binary": (lambda x, y: (x, np.where(np.arange(6) == 2, 2, y), [2, 5]),
                   "labels must be 0 or 1"),
}


class TestStackedExampleChecks:
    @pytest.mark.parametrize("first, second", itertools.permutations(sorted(BAD_EXAMPLES), 2))
    def test_first_bad_example_is_named(self, first, second):
        rng = np.random.default_rng(12)
        adj, x, labels, mask, params = random_setup(rng)
        examples = [(rng.normal(size=x.shape), labels, mask) for _ in range(6)]
        examples[2] = BAD_EXAMPLES[first][0](x, labels)
        examples[4] = BAD_EXAMPLES[second][0](x, labels)
        for call in (
            lambda: train(0, adj, examples),
            lambda: loss_and_gradients(params, adj, examples),
        ):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == f"example 2: {BAD_EXAMPLES[first][1]}"

    def test_an_example_failing_several_checks_names_the_first(self):
        rng = np.random.default_rng(13)
        adj, x, labels, mask, params = random_setup(rng)
        labels[1] = -1
        labels[2] = 5
        for bad, message in (
            ((x[:4], labels, [1, 1]), "features must be (6, 3)"),
            ((x, labels, [2, 1, 1]), "mask repeats a node"),
            ((x, labels, [2, 7]), "mask node outside [0, 6)"),
            ((x, labels, [2, 1]), "masked nodes must have labels"),
        ):
            with pytest.raises(ValueError) as err:
                train(0, adj, [(x, labels, [0]), bad])
            assert str(err.value) == f"example 1: {message}"

    @pytest.mark.parametrize("node", [-1, -4, 4, 9])
    def test_mask_node_outside_the_graph_is_rejected(self, node):
        # a negative index once wrapped to node n - 1 and trained on it
        adj = build_normalized_adjacency(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        x = np.arange(8.0).reshape(4, 2)
        labels = np.array([0, 1, 0, 1])
        examples = [(x, labels, [0, 2]), (x, labels, [1, node])]
        with pytest.raises(ValueError, match=r"^example 1: mask node outside \[0, 4\)$"):
            train(0, adj, examples)
        params = init_params(0, 2, 3)
        with pytest.raises(ValueError, match=r"^example 1: mask node outside \[0, 4\)$"):
            loss_and_gradients(params, adj, examples)


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
        for learning_rate, epoch in [(1e6, 1), (1e3, 1), (50.0, 2)]:
            hyper = TrainConfig(hidden_dim=8, epochs=200, learning_rate=learning_rate)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(TrainingDivergedError) as err:
                    train(9, adj, [(x, labels, mask)], hyper)
            assert err.value.epoch == epoch, learning_rate

    def test_one_epoch_steps_along_the_reported_gradient(self):
        # train and loss_and_gradients run one routine: a single epoch is
        # exactly the initial weights minus the step times its gradients
        rng = np.random.default_rng(16)
        adj, x, labels, mask = noiseless_toy()
        examples = [(x, labels, mask), (rng.normal(size=x.shape), labels, [0, 3, 7])]
        hyper = TrainConfig(hidden_dim=8, epochs=1, learning_rate=0.3)
        trained = train(9, adj, examples, hyper)
        init = init_params(9, x.shape[1], 8)
        _, grads = loss_and_gradients(init, adj, examples)
        assert np.array_equal(trained.w1, init.w1 - hyper.learning_rate * grads.w1)
        assert np.array_equal(trained.w2, init.w2 - hyper.learning_rate * grads.w2)

    def test_requires_an_example(self):
        adj, *_ = noiseless_toy()
        with pytest.raises(ValueError):
            train(0, adj, [], TrainConfig())


def assert_same_bits(got: GcnParams, want: GcnParams):
    assert got.w1.tobytes() == want.w1.tobytes()
    assert got.w2.tobytes() == want.w2.tobytes()


class TestTrainStack:
    """Models trained in one stack against each trained alone, bit for bit."""

    def test_each_member_keeps_the_bits_it_gets_alone(self):
        rng = np.random.default_rng(30)
        for size in [*range(1, 13), *range(1, 13)]:
            n, d, e = (int(v) for v in rng.integers((3, 1, 1), (16, 5, 7)))
            adj = build_normalized_adjacency(
                Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < 0.3])
            )
            hyper = TrainConfig(
                hidden_dim=int(rng.integers(1, 9)),
                epochs=int(rng.integers(0, 30)),
                learning_rate=float(rng.uniform(0.05, 0.5)),
            )
            members = []
            for _ in range(size):
                examples = []
                for _ in range(e):
                    # some labels are missing, so the members' masks differ in size
                    labels = np.where(rng.random(n) < 0.3, -1, rng.integers(0, 2, size=n))
                    labels[rng.integers(n)] = rng.integers(0, 2)
                    labelled = np.flatnonzero(labels != -1)
                    mask = rng.choice(labelled, size=rng.integers(1, labelled.size + 1), replace=False)
                    examples.append((rng.normal(size=(n, d)), labels, mask.tolist()))
                members.append((int(rng.integers(2**32)), examples))
            stacked = train_stack(adj, members, hyper)
            assert len(stacked) == size
            for (seed, examples), got in zip(members, stacked):
                assert_same_bits(got, train(seed, adj, examples, hyper))

    def test_a_diverging_member_leaves_alone_and_the_rest_keep_their_bits(self):
        # at this step size the toy's features scaled by 0.75 diverge at epoch 3 and
        # by 1.0 at epoch 2 when trained alone, and the other scales train 40 epochs
        adj, x, labels, mask = noiseless_toy()
        hyper = TrainConfig(hidden_dim=8, epochs=40, learning_rate=30.0)
        scales = (0.8, 0.75, 0.85, 1.0, 0.9)
        members = [(9, [(x * scale, labels, mask)]) for scale in scales]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            stacked = train_stack(adj, members, hyper)
            alone = []
            for seed, examples in members:
                try:
                    alone.append(train(seed, adj, examples, hyper))
                except TrainingDivergedError as exc:
                    alone.append(exc)
        assert [type(a).__name__ for a in alone].count("TrainingDivergedError") == 2
        for got, want in zip(stacked, alone):
            if isinstance(want, TrainingDivergedError):
                assert isinstance(got, TrainingDivergedError)
                assert (got.epoch, str(got)) == (want.epoch, str(want))
            else:
                assert_same_bits(got, want)
        assert sorted(a.epoch for a in alone if isinstance(a, Exception)) == [2, 3]

    def test_malformed_examples_fail_only_their_member(self):
        adj, x, labels, mask = noiseless_toy()
        hyper = TrainConfig(hidden_dim=4, epochs=5)
        members = [(1, [(x, labels, mask)]), (2, [(x, labels, [])]), (3, [(x, labels, mask)])]
        good, bad, other = train_stack(adj, members, hyper)
        assert str(bad) == "example 0: empty mask" and isinstance(bad, ValueError)
        assert_same_bits(good, train(1, adj, [(x, labels, mask)], hyper))
        assert_same_bits(other, train(3, adj, [(x, labels, mask)], hyper))

    def test_members_of_different_example_counts_are_rejected(self):
        adj, x, labels, mask = noiseless_toy()
        members = [(1, [(x, labels, mask)]), (2, [(x, labels, mask)] * 2)]
        with pytest.raises(ValueError, match="same example count"):
            train_stack(adj, members, TrainConfig(epochs=1))


class TestEmbed:
    def test_direct_mode_on_edgeless_graph_is_identity(self):
        adj = build_normalized_adjacency(Graph.from_edges(3, []))
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(embed(adj, x), x)

    def test_direct_mode_on_triangle_averages_rows(self):
        adj = build_normalized_adjacency(Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)]))
        x = np.array([[0.0, 3.0], [1.0, 4.0], [2.0, 5.0]])
        out = embed(adj, x)
        assert np.abs(out - x.mean(axis=0)).max() < 1e-12


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
