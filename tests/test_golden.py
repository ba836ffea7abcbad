"""Byte-for-byte golden reports for a small study of every strategy.

The study runs twice: once with the default model-based embeddings, whose
reports live in ``golden/``, and once with ``embedding_mode = "direct"``,
whose reports live in ``golden/direct/``. Both run one unit at a time and
again on a two-worker pool, whose tasks train a bootstrap's units in
lockstep; both must write the golden bytes. A change that claims no change in
behaviour must leave these files as they are. A change that moves numbers
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and records in CHANGES.md which cells moved.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from galstream import (
    STRATEGY_NAMES,
    ExperimentConfig,
    SyntheticConfig,
    emit_reports,
    run_experiment,
)
from galstream.reports import REPORT_FILES

GOLDEN_DIR = Path(__file__).parent / "golden"
REPORTS = tuple(name for name in REPORT_FILES if name.endswith(".csv"))
MODES = {"": "model_based", "direct/": "direct"}
GOLDEN_FILES = tuple(prefix + name for prefix in MODES for name in REPORTS)


def golden_config(output_dir, embedding_mode="model_based", workers=1) -> ExperimentConfig:
    return ExperimentConfig(
        synthetic=SyntheticConfig(node_count=40, days=14),
        strategies=STRATEGY_NAMES,
        bootstraps=2,
        epochs=20,
        learning_rate=0.2,
        embedding_mode=embedding_mode,
        workers=workers,
        output_dir=str(output_dir),
    )


def write_reports(output_dir, workers=1) -> dict[str, Path]:
    """Run both studies under ``output_dir``; map each golden name to its file."""
    paths = {}
    for prefix, mode in MODES.items():
        config = golden_config(Path(output_dir) / mode, mode, workers)
        emitted = emit_reports(run_experiment(config), config)
        paths.update({prefix + name: emitted[name] for name in REPORTS})
    return paths


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    return write_reports(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def emitted_by_pool(tmp_path_factory):
    return write_reports(tmp_path_factory.mktemp("golden_pool"), workers=2)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_report_matches_golden_bytes(emitted, name):
    assert emitted[name].read_bytes() == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_pool_report_matches_golden_bytes(emitted_by_pool, name):
    assert emitted_by_pool[name].read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_reports(tmp)
        for name in GOLDEN_FILES:
            (GOLDEN_DIR / name).parent.mkdir(parents=True, exist_ok=True)
            (GOLDEN_DIR / name).write_bytes(paths[name].read_bytes())
    print(f"wrote {', '.join(GOLDEN_FILES)} to {GOLDEN_DIR}", file=sys.stderr)
