"""SHA-256 digests of the reports of a many-bootstrap study.

The golden studies run 2 bootstraps over 7 query days, so none of their
means sums 8 or more terms, and numpy's pairwise summation, which changes
the bits of a sum whose terms are reordered, never engages. This study
runs 4 strategies x 9 bootstraps over 11 query days with
``significance_unit = "bootstrap_mean"``, so the aggregate, rolling and
significance means do. Its CSVs total about 700 KB, so only their digests
are committed, in ``golden/report_digests.json``. A change that moves
numbers regenerates the file with

    PYTHONPATH=src python tests/test_report_digests.py

and records in CHANGES.md which reports moved.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from galstream import (
    ExperimentConfig,
    SyntheticConfig,
    emit_reports,
    recompute_reports,
    run_experiment,
)
from galstream.reports import REPORT_FILES

GOLDEN = Path(__file__).parent / "golden" / "report_digests.json"
REPORTS = tuple(name for name in REPORT_FILES if name.endswith(".csv"))


def digest_config(output_dir) -> ExperimentConfig:
    return ExperimentConfig(
        synthetic=SyntheticConfig(node_count=40, days=18),
        strategies=("no_al", "random", "uncertainty_entropy", "age"),
        bootstraps=9,
        epochs=10,
        learning_rate=0.2,
        significance_unit="bootstrap_mean",
        output_dir=str(output_dir),
    )


def digests(paths) -> dict[str, str]:
    return {name: hashlib.sha256(paths[name].read_bytes()).hexdigest() for name in REPORTS}


def write_reports(output_dir) -> dict[str, Path]:
    config = digest_config(output_dir)
    return emit_reports(run_experiment(config), config)


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    paths = write_reports(tmp_path_factory.mktemp("digests"))
    return paths, digests(paths)


def test_reports_match_golden_digests(emitted):
    _, found = emitted
    assert found == json.loads(GOLDEN.read_text())


def test_recompute_rewrites_the_same_bytes(emitted):
    paths, found = emitted
    recompute_reports(paths["daily.csv"].parent)
    assert digests(paths) == found


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(write_reports(tmp))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
