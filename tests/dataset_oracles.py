"""Pair-at-a-time reference for the synthetic generator.

This is ``generate_synthetic`` with its edges drawn one node pair at a
time, one ``rng.random()`` call each, in (u, v) row-major order. The
library draws every pair's double in one call; the tests require the same
graph and the same day frames, bit for bit, so every later draw of the
stream must see the generator where this loop leaves it. Slow on purpose.
"""

import numpy as np

from galstream import Dataset, DayFrame, Graph, synthetic_communities


def oracle_generate_synthetic(config, seed):
    rng = np.random.default_rng(seed)
    community = synthetic_communities(config)
    n = config.node_count

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = config.p_in if community[u] == community[v] else config.p_out
            if rng.random() < p:
                edges.append((u, v))
    graph = Graph.from_edges(n, edges)

    offsets = rng.normal(0.0, config.offset_scale, size=n)
    regime_count = -(-config.days // config.regime_period)
    signal = rng.normal(0.0, 1.0, size=(config.community_count, regime_count))
    signal = signal - signal.mean(axis=0, keepdims=True)
    context = rng.normal(
        0.0, 1.0, size=(config.community_count, regime_count, config.feature_dim - 1)
    )

    frames = []
    for day in range(config.days):
        regime = day // config.regime_period
        latent = signal[community, regime] + offsets
        feats = np.empty((n, config.feature_dim))
        feats[:, 0] = latent
        feats[:, 1:] = context[community, regime]
        feats += config.noise * rng.normal(size=(n, config.feature_dim))
        labels = (latent > 0).astype(int)
        frames.append(DayFrame(day_index=day, features=feats, labels=labels))
    return Dataset(
        graph=graph, days=tuple(frames), feature_dim=config.feature_dim, name=config.name
    )
