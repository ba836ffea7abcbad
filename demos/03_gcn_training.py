"""Train the reference graph convolution classifier on a few days of data.

Shows the normalized propagation matrix, the training loop, prediction
quality on a held-out day, and the two embedding modes.
"""

import numpy as np

from galstream import (
    SyntheticConfig,
    TrainConfig,
    build_normalized_adjacency,
    embed,
    forward,
    generate_synthetic,
    loss_and_gradients,
    train,
)

dataset = generate_synthetic(SyntheticConfig(node_count=20, days=10), seed=3)
adj = build_normalized_adjacency(dataset.graph)
print(f"propagation matrix: {adj.matrix.shape}, row sums ~ {adj.matrix.sum(axis=1)[:4].round(3)}")

# train on the first five days, all nodes labeled
examples = [
    (frame.features, frame.labels, list(range(dataset.node_count)))
    for frame in dataset.days[:5]
]
hyper = TrainConfig(hidden_dim=16, learning_rate=0.05, epochs=200)
params = train(params_init_seed=0, adj=adj, labeled_examples=examples, hyper=hyper)

for frame in dataset.days[:8]:
    out = forward(params, adj, frame.features)
    pred = (out.probabilities[:, 1] >= 0.5).astype(int)
    acc = (pred == frame.labels).mean()
    tag = "train" if frame.day_index < 5 else "unseen"
    print(f"day {frame.day_index}: accuracy {acc:.3f} ({tag})")

# the analytic gradients agree with finite differences
frame = dataset.days[0]
labeled = [(frame.features, frame.labels, [0, 1, 2, 3])]
loss, grads = loss_and_gradients(params, adj, labeled)
h = 1e-5
idx = (0, 0)
orig = params.w1[idx]
params.w1[idx] = orig + h
up, _ = loss_and_gradients(params, adj, labeled)
params.w1[idx] = orig - h
down, _ = loss_and_gradients(params, adj, labeled)
params.w1[idx] = orig
print(f"\nanalytic dW1[0,0] = {grads.w1[idx]:.8f}, finite difference = {(up - down) / (2 * h):.8f}")

# embedding modes: learned hidden layer vs parameter-free propagation
learned = forward(params, adj, frame.features).hidden
direct = embed(adj, frame.features)
print(f"\nmodel_based embedding: {learned.shape}; direct embedding: {direct.shape}")
corr = np.corrcoef(learned.mean(axis=1), direct.mean(axis=1))[0, 1]
print(f"mean-activation correlation between modes: {corr:.3f}")
