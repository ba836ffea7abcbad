"""Pinned partitions and partition-strategy picks at benchmark scale.

The golden reports cover a 40-node graph only. ``golden/partition_pins.json``
pins, bit for bit, what the partition strategies produce on larger inputs:

- ``partitions``: the SHA-256 of ``modularity_partition(g).community_of``
  (as ``int64`` bytes) and the community count on each centrality-digest
  graph;
- ``picks``: the ``graphpart`` and ``graphpartfar`` selections of fixed,
  seeded contexts on the 300-node benchmark graph.

A change that moves either regenerates the file with

    PYTHONPATH=src python tests/test_partition_pins.py

and records in CHANGES.md what moved.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from test_centrality_digests import GRAPHS

from galstream import (
    SelectionContext,
    SyntheticConfig,
    build_normalized_adjacency,
    generate_synthetic,
    modularity_partition,
    select,
)
from galstream.gcn import forward, init_params

GOLDEN = Path(__file__).parent / "golden" / "partition_pins.json"


def partition_pin(g) -> dict:
    part = modularity_partition(g)
    community_of = np.ascontiguousarray(part.community_of, dtype=np.int64)
    return {
        "community_count": part.community_count,
        "sha256": hashlib.sha256(community_of.tobytes()).hexdigest(),
    }


def _embeddings(kind: str, rng, dataset) -> np.ndarray:
    n = dataset.graph.node_count
    if kind == "normal":
        return rng.normal(size=(n, 16))
    if kind == "coarse":  # few distinct values: tied distances and duplicate rows
        return np.round(rng.normal(size=(n, 4)))
    if kind == "paired":  # every row appears twice
        half = rng.normal(size=((n + 1) // 2, 16))
        return np.repeat(half, 2, axis=0)[:n]
    # "hidden": an untrained model's ReLU layer on a day's features, as the
    # harness embeds in model_based mode (many rows are exactly zero)
    params = init_params(int(rng.integers(1_000)), dataset.feature_dim, 16)
    day = dataset.days[int(rng.integers(len(dataset.days)))]
    return forward(params, build_normalized_adjacency(dataset.graph), day.features).hidden


# (seed, embedding kind, pool size, history size, k)
CONTEXTS = (
    (11, "normal", 240, 0, 5),
    (12, "normal", 240, 40, 5),
    (13, "coarse", 240, 60, 12),
    (14, "paired", 200, 100, 20),
    (15, "hidden", 240, 30, 5),
    (16, "hidden", 240, 120, 8),
)


@lru_cache(maxsize=1)
def _benchmark_dataset():
    # the benchmark's stream: configs/example.ini's synthetic seed 1
    return generate_synthetic(SyntheticConfig(node_count=300, days=30), seed=1)


def context(seed, kind, pool_size, history_size, k) -> SelectionContext:
    dataset = _benchmark_dataset()
    rng = np.random.default_rng(seed)
    n = dataset.graph.node_count
    pool = sorted(rng.choice(n, size=pool_size, replace=False).tolist())
    history = rng.choice(pool, size=history_size, replace=False).tolist()
    p1 = rng.uniform(0.05, 0.95, size=n)
    return SelectionContext(
        graph=dataset.graph,
        adj=build_normalized_adjacency(dataset.graph),
        embeddings=_embeddings(kind, rng, dataset),
        probabilities=np.column_stack([1 - p1, p1]),
        pool=tuple(pool),
        history={int(v): (int(rng.integers(0, 30)),) for v in history},
        k=k,
        rng_seed=seed,
    )


def picks(spec) -> dict[str, list[int]]:
    ctx = context(*spec)
    return {name: list(select(name, ctx).chosen) for name in ("graphpart", "graphpartfar")}


def _key(spec) -> str:
    return "-".join(str(part) for part in spec)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_partition_matches_pin(name):
    expected = json.loads(GOLDEN.read_text())["partitions"][name]
    assert partition_pin(GRAPHS[name]()) == expected


@pytest.mark.parametrize("spec", CONTEXTS, ids=_key)
def test_partition_strategy_picks_match_pin(spec):
    expected = json.loads(GOLDEN.read_text())["picks"][_key(spec)]
    assert picks(spec) == expected


if __name__ == "__main__":
    table = {
        "partitions": {name: partition_pin(build()) for name, build in sorted(GRAPHS.items())},
        "picks": {_key(spec): picks(spec) for spec in CONTEXTS},
    }
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
