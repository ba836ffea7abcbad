"""Byte-for-byte golden reports for a small study.

A change that claims no change in behaviour must leave these files as they
are. A change that moves numbers regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and records in CHANGES.md which cells moved.
"""

import sys
import tempfile
from pathlib import Path

import pytest

from galstream import ExperimentConfig, SyntheticConfig, emit_reports, run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = ("aggregate.csv", "daily.csv")


def golden_config(output_dir) -> ExperimentConfig:
    return ExperimentConfig(
        synthetic=SyntheticConfig(node_count=40, days=14),
        strategies=("no_al", "uncertainty_entropy", "pagerank"),
        bootstraps=2,
        epochs=20,
        learning_rate=0.2,
        output_dir=str(output_dir),
    )


def write_reports(output_dir) -> dict[str, Path]:
    config = golden_config(output_dir)
    return emit_reports(run_experiment(config), config)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    return write_reports(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_report_matches_golden_bytes(emitted, name):
    assert emitted[name].read_bytes() == (GOLDEN_DIR / name).read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_reports(tmp)
        for name in GOLDEN_FILES:
            (GOLDEN_DIR / name).write_bytes(paths[name].read_bytes())
    print(f"wrote {', '.join(GOLDEN_FILES)} to {GOLDEN_DIR}", file=sys.stderr)
