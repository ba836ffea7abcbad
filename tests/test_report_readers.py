"""The block readers of ``daily.csv`` and ``queries.csv`` against the row-by-row oracles.

``read_daily_records`` and ``read_query_logs`` read a file once, a bounded
block of rows at a time, and check each block as whole columns: plain
lines are split on commas, and from the first block with a quote, a
carriage return or a blank line on, ``csv.reader`` tokenizes the rest.
These tests read files edited in those ways, and others, at a block small
enough that a small run's files span many blocks and at the default block,
and require what ``report_oracles`` gives: the same table or logs, or the
same error with its message and line.
"""

import csv
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from csv_edits import edited
from report_oracles import oracle_read_daily_records, oracle_read_query_logs

from galstream import (
    ExperimentConfig,
    SyntheticConfig,
    datasets,
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
# (bytes of a plain block, rows of a csv.reader block): small, then the defaults
BLOCKS = ((SMALL_BLOCK, 2), (datasets._BLOCK_BYTES, datasets._BLOCK_ROWS))
ORACLES = {
    reports.read_daily_records: oracle_read_daily_records,
    reports.read_query_logs: oracle_read_query_logs,
}

# Tokens an edit writes into a field: names in and out of the run, numbers in
# and out of range and in forms ``int`` and ``float`` accept that are not
# plain decimals, and text the csv parser treats specially.
TOKENS = (
    "random", "degree", "no_al", "age", "bogus",
    "test_set_same_day", "train_next_day", "elsewhere", "accuracy", "auc_pr", "loss",
    "0", "1", "2", "3", "5", "7", "11", "12", "99", "-0", "01", " 3", "+3", "1_0", "٣",
    "٠١", "0.5", "0.25", " 0.25", "1e-1", "-0.0", "1.0", "1.5", "nan", "inf", "NA", "x",
    "", '"0.5"', '0.5"', '"a,b"', "4,4", '"1\n"',
)
EDITS = (
    "replace", "delete", "duplicate", "blank line", "crlf line", "quoted field",
    "extra column", "missing column", "field to line break", "no final newline",
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


def _outcome(read, path, config, dataset):
    """What ``read`` makes of ``path``: its rows by value, or its error."""
    try:
        got = read(path, config, dataset)
    except DataFormatError as exc:
        return type(exc), str(exc)
    if isinstance(got, dict):  # query logs
        return {key: (log.pool, log.days_by_node) for key, log in got.items()}
    return list(got)


def _assert_as_row_by_row(read, path, config, dataset):
    want = _outcome(ORACLES[read], path, config, dataset)
    for block_bytes, block_rows in BLOCKS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datasets, "_BLOCK_BYTES", block_bytes)
            mp.setattr(datasets, "_BLOCK_ROWS", block_rows)
            assert _outcome(read, path, config, dataset) == want, block_bytes
    return want


@pytest.mark.parametrize(
    "name, read",
    [("daily.csv", reports.read_daily_records), ("queries.csv", reports.read_query_logs)],
)
@settings(max_examples=120, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.sampled_from(EDITS),
            st.integers(0, 10_000),
            st.integers(0, 10_000),
            st.integers(0, 5),
            st.sampled_from(TOKENS),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_edited_file_read_as_row_by_row(run, name, read, edits):
    config, dataset, run_dir = run
    text = (run_dir / name).read_text()
    for edit in edits:
        text = edited(text, *edit)
    path = run_dir / f"edited-{name}"
    path.write_text(text, newline="")
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


@pytest.mark.parametrize("block", [SMALL_BLOCK, datasets._BLOCK_BYTES])
def test_crlf_quote_all_files_recompute_byte_for_byte(run, tmp_path, monkeypatch, block):
    monkeypatch.setattr(datasets, "_BLOCK_BYTES", block)
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


@pytest.mark.parametrize("line", [1, 6])
@pytest.mark.parametrize(
    "name, read",
    [("daily.csv", reports.read_daily_records), ("queries.csv", reports.read_query_logs)],
)
def test_field_over_the_csv_limit_named_at_its_line(run, tmp_path, name, read, line):
    config, dataset, run_dir = run
    lines = (run_dir / name).read_text().splitlines(keepends=True)
    lines[line - 1] = "1" * (csv.field_size_limit() + 1) + lines[line - 1]
    path = tmp_path / name
    path.write_text("".join(lines))
    error_type, error = _assert_as_row_by_row(read, path, config, dataset)
    assert error_type is DataFormatError
    assert error == f"{path}:{line}: field larger than field limit ({csv.field_size_limit()})"


# Rows that fail one check and every check after it, each named by that first check.
# The first of each file is two lines one field short of a row between them.
FIRST_FAILURES = [
    ("daily.csv", "random\n0,2,train_next_day,recall", "expected 6 columns, got 1"),
    ("daily.csv", "bogus,x,y,elsewhere,loss,nan", "invalid literal for int() with base 10: 'x'"),
    ("daily.csv", "bogus,0,y,elsewhere,loss,nan", "invalid literal for int() with base 10: 'y'"),
    ("daily.csv", "bogus,0,99,elsewhere,loss,nan", "unknown strategy 'bogus'"),
    ("daily.csv", "age,9,99,elsewhere,loss,nan", "unknown category 'elsewhere'"),
    ("daily.csv", "age,9,99,train_next_day,loss,nan", "unknown metric 'loss'"),
    ("daily.csv", "age,9,99,train_next_day,recall,x", "age bootstrap 9 is not a unit of this run"),
    ("daily.csv", "no_al,0,99,train_next_day,recall,x", "day 99 is not a query day of the dataset"),
    ("daily.csv", "no_al,0,2,train_next_day,recall,x", "no_al scores no train_next_day"),
    ("daily.csv", "random,0,2,train_next_day,recall,x", "could not convert string to float: 'x'"),
    ("daily.csv", "random,0,2,train_next_day,recall,nan", "values must be finite and lie in [0, 1]"),
    ("queries.csv", "random\n0,2", "expected 4 columns, got 1"),
    ("queries.csv", "bogus,x,y,z", "invalid literal for int() with base 10: 'x'"),
    ("queries.csv", "bogus,0,y,z", "invalid literal for int() with base 10: 'y'"),
    ("queries.csv", "bogus,0,99,z", "invalid literal for int() with base 10: 'z'"),
    ("queries.csv", "bogus,0,99,999", "bogus bootstrap 0 is not a logged unit of this run"),
    ("queries.csv", "random,0,99,999", "queried node 999 is not a pool node"),
    ("queries.csv", "random,0,99,{node}", "day 99 is not a query day of the dataset"),
]


@pytest.mark.parametrize("name, row, message", FIRST_FAILURES)
def test_row_named_by_its_first_failed_check(run, tmp_path, name, row, message):
    config, dataset, run_dir = run
    read = {"daily.csv": reports.read_daily_records, "queries.csv": reports.read_query_logs}[name]
    header, first, rest = (run_dir / name).read_text().split("\n", 2)
    assert first.startswith("random,0,") or name == "daily.csv"
    path = tmp_path / name
    row = row.format(node=first.split(",")[-1])  # a node of random bootstrap 0's pool
    path.write_text("\n".join([header, row, first, rest]))
    error_type, error = _assert_as_row_by_row(read, path, config, dataset)
    assert error_type is DataFormatError
    assert error == f"{path}:2: {message}"
