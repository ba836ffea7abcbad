"""Generate, inspect, and round-trip a synthetic dynamic-sensor dataset.

The generator builds a stochastic-block-model graph whose nodes emit daily
features driven by a per-community signal that is redrawn every regime
period; labels flip when the signal plus a per-node offset crosses zero.
"""

import tempfile
from pathlib import Path

import numpy as np

from galstream import (
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    make_split,
    save_dataset,
    synthetic_communities,
)

config = SyntheticConfig(node_count=40, community_count=2, days=30, regime_period=7)
dataset = generate_synthetic(config, seed=1)

print(f"graph: {dataset.node_count} nodes, {dataset.graph.edge_count} edges")
print(f"stream: {dataset.day_count} days x {dataset.feature_dim} features")

truth = synthetic_communities(config)
print(f"community sizes: {np.bincount(truth).tolist()}")

labels = np.concatenate([frame.labels for frame in dataset.days])
print(f"positive label fraction: {(labels == 1).mean():.3f}")

# label churn is visible at every regime boundary
print("\nper-day positive fraction (regime shifts every 7 days):")
for frame in dataset.days:
    bar = "#" * int(30 * (frame.labels == 1).mean())
    marker = " <- regime boundary" if frame.day_index % config.regime_period == 0 else ""
    print(f"day {frame.day_index:2d} {bar:30s}{marker}")

split = make_split(dataset, holdout_fraction=0.2, seed=0)
print(f"\nholdout: {len(split.holdout)} nodes, pool: {len(split.pool)} nodes")

# the CSV round trip is exact
with tempfile.TemporaryDirectory() as tmp:
    paths = save_dataset(dataset, Path(tmp))
    reloaded = load_dataset(paths["edges"], paths["features"], paths["labels"])
    same = all(
        np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
        for a, b in zip(dataset.days, reloaded.days)
    )
    print(f"save -> load round trip bit-exact: {same}")
