"""The report writers against the cell-at-a-time ``csv.writer`` they replace.

``datasets._write_csv`` formats each distinct value of a column once, a
float by its bit pattern, and takes a block's cells from those texts by
code; a name column arrives as its names and a code per row. These tests
hold it, and the ``daily.csv`` and ``queries.csv`` it writes from the grid
and the logs, to the bytes of ``metric_oracles.oracle_write_csv``, with the
block shrunk so that a small run's files span many blocks. Every derived
report, written and rewritten, must match the row-at-a-time references of
``report_oracles``, also when units fail. The last test interleaves three
runs in one process and requires the bytes each writes alone in a fresh
one, so no state outlives a call.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from burden_oracles import oracle_query_rows
from metric_oracles import oracle_write_csv
from report_oracles import oracle_derived_reports

from galstream import (
    ExperimentConfig,
    SyntheticConfig,
    burden,
    datasets,
    emit_reports,
    harness,
    recompute_reports,
    reports,
    run_experiment,
)
from galstream.config import config_to_dict
from galstream.graphs import CENTRALITY_METRICS
from galstream.harness import load_configured_dataset

SMALL_BLOCK = 7  # rows

CELLS = [
    None, 0, 7, -3, np.int64(12), 0.5, np.float64(0.1), np.float64(1.0) / 3.0, 1e-05, 1e16, 1e22,
    0.1 + 0.2, 5e-324, -0.0, 1.0, 123456789.125, float("inf"), "random", "NA", "",
]


def test_cells_match_the_cell_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(5)
    kinds = [
        [c for c in CELLS if c is None or isinstance(c, float)],  # a float column, None as NaN
        [c for c in CELLS if isinstance(c, (int, np.integer))],
        [c for c in CELLS if isinstance(c, str)],
    ]
    assert sum(map(len, kinds)) == len(CELLS)
    # random rows, then rows that write every value of each kind
    codes = [
        np.concatenate([rng.integers(0, len(kind), size=60), np.arange(len(CELLS)) % len(kind)])
        for kind in kinds
    ]
    floats, ints, names = kinds
    columns = [
        np.array([np.nan if v is None else v for v in floats])[codes[0]],
        np.array(ints, dtype=np.int64)[codes[1]],
        (names, codes[2]),
    ]
    rows = zip(*([kind[i] for i in c.tolist()] for kind, c in zip(kinds, codes)))
    header = ["a", "b", "c"]
    oracle_write_csv(tmp_path / "want.csv", header, rows)
    datasets._write_csv(tmp_path / "got.csv", header, columns)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_float_columns_match_the_cell_writer(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(6)
    floats = [c for c in CELLS if isinstance(c, float)] + rng.random(40).tolist()
    values = np.array(floats + [np.nan] * 5)
    rng.shuffle(values)
    days = rng.integers(0, 1000, size=values.size)
    want = [(int(d), None if np.isnan(v) else v) for d, v in zip(days, values)]
    oracle_write_csv(tmp_path / "want.csv", ["day", "value"], want)
    datasets._write_csv(tmp_path / "got.csv", ["day", "value"], [days, values])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    datasets._write_csv(tmp_path / "empty.csv", ["day", "value"], [days[:0], values[:0]])
    assert (tmp_path / "empty.csv").read_bytes() == b"day,value\n"


def _nan(payload: int, sign: int = 0) -> float:
    bits = np.array([sign << 63 | 0x7FF8 << 48 | payload], dtype=np.uint64)
    return float(bits.view(np.float64)[0])


CODED_CASES = {
    # a few values repeated in every block, so each block reuses texts formatted once
    "repeats across blocks": lambda rng, n: rng.choice([0.5, 0.1 + 0.2, 1e22, 1.0 / 3.0], size=n),
    "signed zeros and NaN payloads": lambda rng, n: rng.choice(
        [0.0, -0.0, np.nan, _nan(1), _nan(5, sign=1), 1.0], size=n
    ),
    "repeated int64": lambda rng, n: rng.choice(
        np.array([0, -3, 12, 2**62, -(2**63)], dtype=np.int64), size=n
    ),
    "coded names": lambda rng, n: (("no_al", "random", "NA", ""), rng.integers(0, 4, size=n)),
}


@pytest.mark.parametrize("case", CODED_CASES)
def test_coded_columns_match_the_cell_writer(tmp_path, monkeypatch, case):
    monkeypatch.setattr(datasets, "_BLOCK_ROWS", SMALL_BLOCK)
    rng = np.random.default_rng(7)
    column = CODED_CASES[case](rng, 10 * SMALL_BLOCK + 3)
    days = rng.integers(0, 5, size=10 * SMALL_BLOCK + 3)
    if isinstance(column, tuple):
        names, codes = column
        cells = [names[i] for i in codes.tolist()]
    else:
        cells = [None if v != v else v for v in column.tolist()]
    oracle_write_csv(tmp_path / "want.csv", ["day", "x", "y"], zip(days.tolist(), cells, cells))
    datasets._write_csv(tmp_path / "got.csv", ["day", "x", "y"], [days, column, column])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


STRATEGIES = ("no_al", "random", "degree", "age")


def _config(nodes: int, out: Path, **overrides) -> ExperimentConfig:
    settings = dict(
        synthetic=SyntheticConfig(node_count=nodes, days=9, feature_dim=2, regime_period=3),
        strategies=STRATEGIES,
        initial_days=2,
        queries_per_day=3,
        bootstraps=2,
        epochs=5,
        output_dir=str(out),
    )
    settings.update(overrides)
    return ExperimentConfig(**settings)


def test_daily_and_queries_span_write_blocks(tmp_path, monkeypatch):
    monkeypatch.setattr(datasets, "_BLOCK_ROWS", SMALL_BLOCK)
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


def _failing(failed):
    """``harness.run_unit`` raising for each (strategy, bootstrap) that ``failed`` holds."""
    run_unit = harness.run_unit

    def run(dataset, config, strategy, bootstrap):
        if (strategy, bootstrap) in failed:
            raise RuntimeError("injected fault")
        return run_unit(dataset, config, strategy, bootstrap)

    return run


DERIVED_CASES = {
    "one failed unit": ({("degree", 1)}, {}),
    "one strategy failed": ({("random", 0), ("random", 1), ("random", 2)}, {}),
    "every unit failed": ({(s, b) for s in STRATEGIES for b in range(3)}, {}),
    "bootstrap_mean": (set(), {"significance_unit": "bootstrap_mean"}),
    "direct": (set(), {"embedding_mode": "direct"}),
}


@pytest.mark.parametrize("case", DERIVED_CASES)
def test_derived_reports_match_row_at_a_time_reference(tmp_path, monkeypatch, case):
    failed, overrides = DERIVED_CASES[case]
    monkeypatch.setattr(harness, "run_unit", _failing(failed))
    config = _config(12, tmp_path / "run", bootstraps=3, **overrides)
    result = run_experiment(config)
    assert {f[:2] for f in result.failures} == failed
    paths = emit_reports(result, config)
    names = oracle_derived_reports(tmp_path, result, config, load_configured_dataset(config))
    emitted = {name: paths[name].read_bytes() for name in names}
    for name in names:
        assert emitted[name] == (tmp_path / name).read_bytes(), name
    recompute_reports(config.output_dir)
    for name in names:
        assert paths[name].read_bytes() == emitted[name], name


def test_heatmap_normalizes_each_centrality_once_per_emit(tmp_path, monkeypatch):
    config = ExperimentConfig(
        synthetic=SyntheticConfig(node_count=12, days=7, feature_dim=2, regime_period=3),
        initial_days=2,
        queries_per_day=2,
        bootstraps=2,
        epochs=2,
        output_dir=str(tmp_path / "run"),
    )
    assert len(config.strategies) == 13
    result = run_experiment(config)
    calls = []
    normalized_centrality = burden.normalized_centrality

    def counted(*args):
        calls.append(args)
        return normalized_centrality(*args)

    monkeypatch.setattr(burden, "normalized_centrality", counted)
    emit_reports(result, config)
    assert 0 < len(calls) <= len(CENTRALITY_METRICS)


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
