"""Bit-for-bit digests of the weights ``train`` returns.

Every report byte downstream of training depends on the trained weights
(the embedding-based selections flip on ulp-level changes), so a faster
kernel must return the same bits, not merely close values.
``golden/train_digests.json`` maps each case to the SHA-256 of
``w1.tobytes() + w2.tobytes()``. The cases cover n in {40, 120, 300} nodes
x e in {8, 17, 29} day-examples of the benchmark's synthetic stream, each
example labelled on a seeded half of the pool, in two settings: the
default (200 epochs, learning rate 0.05) and the large study's (10 epochs,
learning rate 0.2). A change that moves weights regenerates the file with

    PYTHONPATH=src python tests/test_train_digests.py

and records in CHANGES.md which weights moved.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from galstream import (
    SyntheticConfig,
    TrainConfig,
    build_normalized_adjacency,
    generate_synthetic,
    make_split,
    train,
)

GOLDEN = Path(__file__).parent / "golden" / "train_digests.json"

NODES = (40, 120, 300)
EXAMPLES = (8, 17, 29)
SETTINGS = {
    "default": TrainConfig(),
    "large": TrainConfig(epochs=10, learning_rate=0.2),
}
CASES = [
    f"{setting}-n{n}-e{e}" for setting in SETTINGS for n in NODES for e in EXAMPLES
]


@lru_cache(maxsize=None)
def _stream(n: int):
    # the benchmark's stream: configs/example.ini's synthetic seed 1
    dataset = generate_synthetic(SyntheticConfig(node_count=n, days=30), seed=1)
    pool = np.asarray(make_split(dataset, 0.2, seed=0).pool)
    return dataset, build_normalized_adjacency(dataset.graph), pool


def _examples(n: int, e: int):
    dataset, adj, pool = _stream(n)
    rng = np.random.default_rng([n, e])
    examples = [
        (frame.features, frame.labels, rng.choice(pool, size=pool.size // 2, replace=False))
        for frame in dataset.days[:e]
    ]
    return adj, examples


def digest(case: str) -> str:
    setting, n, e = case.split("-")
    adj, examples = _examples(int(n[1:]), int(e[1:]))
    params = train(7, adj, examples, SETTINGS[setting])
    return hashlib.sha256(params.w1.tobytes() + params.w2.tobytes()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_trained_weights_match_golden_digest(case):
    assert digest(case) == json.loads(GOLDEN.read_text())[case]


if __name__ == "__main__":
    table = {case: digest(case) for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
