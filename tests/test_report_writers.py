"""The report writers against the cell-at-a-time ``csv.writer`` they replace.

``reports._write_csv`` formats a block of rows a column at a time: one
``repr`` pass over a float array, NA for an undefined value. These tests
hold it, and the ``daily.csv`` and ``queries.csv`` it writes from the grid
and the logs, to the bytes of ``metric_oracles.oracle_write_csv``, with the
block shrunk so that a small run's files span many blocks. The last test
interleaves three runs in one process and requires the bytes each writes
alone in a fresh one, so no state outlives a call.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from burden_oracles import oracle_query_rows
from metric_oracles import oracle_write_csv

from galstream import (
    ExperimentConfig,
    SyntheticConfig,
    emit_reports,
    recompute_reports,
    reports,
    run_experiment,
)
from galstream.config import config_to_dict

SMALL_BLOCK = 7  # rows

CELLS = [
    None, 0, 7, -3, np.int64(12), 0.5, np.float64(0.1), np.float64(1.0) / 3.0, 1e-05, 1e16, 1e22,
    0.1 + 0.2, 5e-324, -0.0, 1.0, 123456789.125, float("inf"), "random", "NA", "",
]


def test_cells_match_the_cell_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(5)
    rows = [tuple(CELLS[i] for i in rng.integers(0, len(CELLS), size=3)) for _ in range(60)]
    rows += [(value, value, value) for value in CELLS]
    header = ["a", "b", "c"]
    oracle_write_csv(tmp_path / "want.csv", header, rows)
    reports._write_rows(tmp_path / "got.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_float_columns_match_the_cell_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(6)
    floats = [c for c in CELLS if isinstance(c, float)] + rng.random(40).tolist()
    values = np.array(floats + [np.nan] * 5)
    rng.shuffle(values)
    days = rng.integers(0, 1000, size=values.size)
    want = [(int(d), None if np.isnan(v) else v) for d, v in zip(days, values)]
    oracle_write_csv(tmp_path / "want.csv", ["day", "value"], want)
    reports._write_csv(tmp_path / "got.csv", ["day", "value"], [days, values])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    reports._write_csv(tmp_path / "empty.csv", ["day", "value"], [days[:0], values[:0]])
    assert (tmp_path / "empty.csv").read_bytes() == b"day,value\n"


def _config(nodes: int, out: Path, **overrides) -> ExperimentConfig:
    settings = dict(
        synthetic=SyntheticConfig(node_count=nodes, days=9, feature_dim=2, regime_period=3),
        strategies=("no_al", "random", "degree", "age"),
        initial_days=2,
        queries_per_day=3,
        bootstraps=2,
        epochs=5,
        output_dir=str(out),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_daily_and_queries_span_write_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(reports, "_BLOCK_ROWS", SMALL_BLOCK)
    config = _config(12, tmp_path / "run")
    result = run_experiment(config)
    paths = emit_reports(result, config)
    oracle_write_csv(tmp_path / "daily.csv", reports._DAILY_HEADER, result.records)
    rows = oracle_query_rows(config.strategies, result.query_logs)
    oracle_write_csv(tmp_path / "queries.csv", reports._QUERY_HEADER, rows)
    for name in ("daily.csv", "queries.csv"):
        got = paths[name].read_bytes()
        assert got.count(b"\n") > 8 * SMALL_BLOCK, name
        assert got == (tmp_path / name).read_bytes(), name


_FRESH = """
import json, sys
from galstream import emit_reports, run_experiment
from galstream.config import config_from_dict
config = config_from_dict(json.loads(sys.argv[1]))
emit_reports(run_experiment(config), config)
"""


def _csvs(directory: Path) -> dict[str, bytes]:
    return {
        name: (directory / name).read_bytes()
        for name in reports.REPORT_FILES
        if name.endswith(".csv")
    }


@pytest.mark.parametrize("significance_unit", ["day", "bootstrap_mean"])
def test_no_state_outlives_a_call(tmp_path, significance_unit):
    # the two 12-node runs draw the same pools on different graphs, so a
    # centrality side kept from one call would be wrong for the other
    configs = [
        _config(40, tmp_path / "large", significance_unit=significance_unit),
        _config(12, tmp_path / "small", embedding_mode="direct", rolling_window=3),
        _config(12, tmp_path / "other", synthetic_seed=5),
    ]
    alone = []
    src = Path(reports.__file__).resolve().parent.parent
    for config in configs:
        fresh = tmp_path / f"fresh-{Path(config.output_dir).name}"
        payload = json.dumps({**config_to_dict(config), "output_dir": str(fresh)})
        subprocess.run(
            [sys.executable, "-c", _FRESH, payload],
            check=True,
            env={"PYTHONPATH": str(src), "OMP_NUM_THREADS": "1"},
        )
        alone.append(_csvs(fresh))
    large, small, other = configs
    results = [run_experiment(config) for config in configs]
    emit_reports(results[0], large)
    emit_reports(results[1], small)
    emit_reports(results[2], other)
    recompute_reports(large.output_dir)
    emit_reports(results[0], large)
    recompute_reports(small.output_dir)
    recompute_reports(other.output_dir)
    recompute_reports(large.output_dir)
    for config, want in zip(configs, alone):
        assert _csvs(Path(config.output_dir)) == want, config.output_dir
