"""The block readers of ``daily.csv`` and ``queries.csv`` against the row-by-row check.

``read_daily_records`` and ``read_query_logs`` check a file's rows as whole
columns, a bounded block of lines at a time, and read the file row by row
only when a block fails a check. These tests shrink the block so that a
small run's files span many blocks, and require what the row-by-row check
gives: the same table or logs, or the same error with its message and line.
"""

import csv
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galstream import (
    ExperimentConfig,
    SyntheticConfig,
    emit_reports,
    recompute_reports,
    reports,
    run_experiment,
)
from galstream.exceptions import DataFormatError
from galstream.harness import load_configured_dataset

DERIVED = (
    "aggregate.csv", "rolling.csv", "burden.csv", "tradeoff.csv",
    "centrality_heatmap.csv", "centrality_correlation.csv", "significance.csv",
)
SMALL_BLOCK = 64  # bytes: a few lines, so even the run's queries.csv spans several blocks

# Tokens a single-row edit writes into a field: names in and out of the run,
# numbers in and out of range and in forms ``int`` and ``float`` accept that
# are not plain decimals, and text the csv parser treats specially.
TOKENS = (
    "random", "degree", "no_al", "age", "bogus",
    "test_set_same_day", "train_next_day", "elsewhere", "accuracy", "auc_pr", "loss",
    "0", "1", "2", "3", "5", "7", "11", "12", "99", "-0", "01", " 3", "+3", "1_0",
    "0.5", "0.25", " 0.25", "1e-1", "-0.0", "1.0", "1.5", "nan", "inf", "NA", "x", "",
    '"0.5"', '0.5"', '"a,b"', "4,4",
)


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    config = ExperimentConfig(
        synthetic=SyntheticConfig(node_count=12, days=8, feature_dim=2, regime_period=3),
        strategies=("no_al", "random", "degree"),
        initial_days=2,
        queries_per_day=2,
        bootstraps=2,
        epochs=10,
        output_dir=str(tmp_path_factory.mktemp("run") / "out"),
    )
    paths = emit_reports(run_experiment(config), config)
    return config, load_configured_dataset(config), paths["daily.csv"].parent


def _recheck(*args):
    raise reports._Recheck


def _outcome(read, path, config, dataset, *, row_by_row):
    """What ``read`` makes of ``path``: its rows by value, or its error."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reports, "_BLOCK_BYTES", SMALL_BLOCK)
        if row_by_row:
            mp.setattr(reports, "_fill_daily", _recheck)
            mp.setattr(reports, "_query_events", _recheck)
        try:
            got = read(path, config, dataset)
        except (DataFormatError, csv.Error) as exc:
            return type(exc), str(exc)
    if isinstance(got, dict):  # query logs
        return {key: (log.pool, log.days_by_node) for key, log in got.items()}
    return list(got)


def _assert_as_row_by_row(read, path, config, dataset):
    got = _outcome(read, path, config, dataset, row_by_row=False)
    assert got == _outcome(read, path, config, dataset, row_by_row=True)
    return got


def _edited(text, kind, line, other, column, token):
    header, *rows = text.splitlines(keepends=True)
    i = line % len(rows)
    if kind == "delete":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(other % (len(rows) + 1), rows[i])
    else:
        fields = rows[i].rstrip("\n").split(",")
        fields[column % len(fields)] = token
        rows[i] = ",".join(fields) + "\n"
    return header + "".join(rows)


@pytest.mark.parametrize(
    "name, read",
    [("daily.csv", reports.read_daily_records), ("queries.csv", reports.read_query_logs)],
)
@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(("replace", "delete", "duplicate")),
    line=st.integers(0, 10_000),
    other=st.integers(0, 10_000),
    column=st.integers(0, 5),
    token=st.sampled_from(TOKENS),
)
def test_single_row_edit_read_as_row_by_row(run, name, read, kind, line, other, column, token):
    config, dataset, run_dir = run
    path = run_dir / f"edited-{name}"
    path.write_text(_edited((run_dir / name).read_text(), kind, line, other, column, token))
    _assert_as_row_by_row(read, path, config, dataset)


@pytest.mark.parametrize(
    "name, read",
    [("daily.csv", reports.read_daily_records), ("queries.csv", reports.read_query_logs)],
)
def test_unedited_files_span_blocks_and_read_as_row_by_row(run, name, read):
    config, dataset, run_dir = run
    assert (run_dir / name).stat().st_size > 8 * SMALL_BLOCK
    got = _assert_as_row_by_row(read, run_dir / name, config, dataset)
    assert not isinstance(got, tuple)  # read, not rejected


@pytest.mark.parametrize(
    "name, read, message",
    [
        ("daily.csv", reports.read_daily_records, "repeats the"),
        ("queries.csv", reports.read_query_logs, "repeats the query of node"),
    ],
)
def test_repeat_of_a_row_in_an_earlier_block_named_at_its_line(run, tmp_path, name, read, message):
    config, dataset, run_dir = run
    text = (run_dir / name).read_text()
    first_row = text.splitlines(keepends=True)[1]
    path = tmp_path / name
    path.write_text(text + first_row)
    line = text.count("\n") + 1
    error_type, error = _assert_as_row_by_row(read, path, config, dataset)
    assert error_type is DataFormatError
    assert error.startswith(f"{path}:{line}: {message}")


@pytest.mark.parametrize(
    "name, read, row, message",
    [
        ("daily.csv", reports.read_daily_records, 5, "values must be finite and lie in [0, 1]"),
        ("queries.csv", reports.read_query_logs, 3, "queried node 99 is not a pool node"),
    ],
)
def test_bad_row_past_the_first_block_named_at_its_line(run, tmp_path, name, read, row, message):
    config, dataset, run_dir = run
    header, *rows = (run_dir / name).read_text().splitlines(keepends=True)
    i = len(rows) * 2 // 3
    fields = rows[i].rstrip("\n").split(",")
    fields[row] = "99"
    rows[i] = ",".join(fields) + "\n"
    assert len("".join([header, *rows[:i]])) > 4 * SMALL_BLOCK
    path = tmp_path / name
    path.write_text(header + "".join(rows))
    error_type, error = _assert_as_row_by_row(read, path, config, dataset)
    assert error_type is DataFormatError
    assert error == f"{path}:{i + 2}: {message}"


@pytest.mark.parametrize("block", [SMALL_BLOCK, reports._BLOCK_BYTES])
def test_crlf_quote_all_files_recompute_byte_for_byte(run, tmp_path, monkeypatch, block):
    monkeypatch.setattr(reports, "_BLOCK_BYTES", block)
    _, _, run_dir = run
    copy = shutil.copytree(run_dir, tmp_path / "quoted")
    for name in ("daily.csv", "queries.csv"):
        with open(run_dir / name, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(copy / name, "w", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL, lineterminator="\r\n").writerows(rows)
        assert (copy / name).read_bytes().startswith(b'"strategy","bootstrap"')
    recompute_reports(copy)
    for name in DERIVED:
        assert (copy / name).read_bytes() == (run_dir / name).read_bytes(), name
