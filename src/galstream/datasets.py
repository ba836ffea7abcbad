"""Dataset schema, CSV loading/saving, synthetic generation, and the holdout split.

File formats (all CSV with headers, node ids 0-based):

* ``edges.csv``      -- ``src,dst``; one undirected edge per row.
* ``features.csv``   -- ``day,node,f0,...,f{D-1}``; a blank cell is a missing
  value and is imputed to 0; a (day, node) row that is absent entirely means
  an all-zero feature row.
* ``labels.csv``     -- ``day,node,label`` with label in {0, 1}; absent rows
  mean the label is missing for that (day, node).

This module holds the package's one CSV reader, :func:`_read_blocks`, and its
one CSV writer, :func:`_write_csv`, for every file the package reads or
writes: the three dataset files here and the report files of
:mod:`galstream.reports`. Files are written with ``\\n`` line ends; quoted
fields and ``\\r\\n`` line ends are read.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .exceptions import DataFormatError
from .gcn import MISSING_LABEL
from .graphs import Graph


@dataclass(frozen=True)
class DayFrame:
    """One day of node features plus (possibly missing) binary labels."""

    day_index: int
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=float)
        labels = np.ascontiguousarray(self.labels, dtype=int)
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must have one entry per node")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite after imputation")
        if not np.isin(labels, (0, 1, MISSING_LABEL)).all():
            raise ValueError("labels must be 0, 1 or the missing marker")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)


@dataclass(frozen=True)
class Dataset:
    """A static graph with an ordered stream of daily feature/label frames."""

    graph: Graph
    days: tuple[DayFrame, ...]
    feature_dim: int

    def __post_init__(self) -> None:
        indices = [d.day_index for d in self.days]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("day frames must be strictly ordered by day_index")
        for frame in self.days:
            if frame.features.shape != (self.graph.node_count, self.feature_dim):
                raise ValueError(
                    f"day {frame.day_index}: features must be "
                    f"({self.graph.node_count}, {self.feature_dim})"
                )

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def day_count(self) -> int:
        return len(self.days)


@dataclass(frozen=True)
class Split:
    """Disjoint holdout/pool node partition."""

    holdout: tuple[int, ...]
    pool: tuple[int, ...]

    def __post_init__(self) -> None:
        holdout = tuple(sorted(set(int(v) for v in self.holdout)))
        pool = tuple(sorted(set(int(v) for v in self.pool)))
        if set(holdout) & set(pool):
            raise ValueError("holdout and pool must be disjoint")
        object.__setattr__(self, "holdout", holdout)
        object.__setattr__(self, "pool", pool)


# ---------------------------------------------------------------------------
# CSV loading / saving
# ---------------------------------------------------------------------------


NA = "NA"

# So that a block's strings stay small next to its arrays, CSVs are written, and read
# by ``csv.reader``, this many rows at a time, and otherwise read in blocks of about
# this many characters, each completed to the end of its last line.
_BLOCK_ROWS = 1 << 10
_BLOCK_BYTES = 1 << 16


def _coded(column) -> tuple[np.ndarray, np.ndarray]:
    """One column as its distinct texts, an object array, and each row's code into them.

    ``column`` is a (names, codes) pair, or a numeric array, each distinct
    bit pattern of which is formatted once: ``repr`` of a float, NA for NaN
    and ``str`` of an integer. Bit patterns keep ``-0.0`` apart from ``0.0``.
    """
    if isinstance(column, tuple):
        names, codes = column
        return np.array(names, dtype=object), codes
    if column.dtype.kind != "f":
        distinct, codes = np.unique(column, return_inverse=True)
        return np.array(list(map(str, distinct.tolist())), dtype=object), codes
    bits, codes = np.unique(column.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
    texts[np.isnan(distinct)] = NA
    return texts, codes


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write a CSV from its columns of equal length: (names, codes) pairs or numeric
    arrays (see :func:`_coded`).

    Each block of rows takes its cells from its columns' texts by code. No
    cell holds a comma, quote or line break, so each line is its cells
    joined by commas, as ``csv.writer`` writes it with ``\\n`` line ends.
    """
    coded = [_coded(column) for column in columns]
    rows = len(coded[0][1]) if coded else 0
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows, _BLOCK_ROWS):
            cells = [texts[codes[start : start + _BLOCK_ROWS]].tolist() for texts, codes in coded]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _next_row(path: str | Path, reader) -> list[str] | None:
    """The next row of a ``csv.reader`` over ``path``, None at its end; a field it
    rejects raises :class:`DataFormatError` at its line."""
    try:
        return next(reader, None)
    except csv.Error as exc:
        raise DataFormatError(path, reader.line_num, str(exc)) from None


def _read_blocks(path: str | Path, header: list[str]):
    """Each block of a CSV's rows: the line of each row, then each column's strings.

    The rows are those ``csv.reader`` reads, blank lines left out. A block of
    plain lines, ended by ``\n`` or ``\r\n``, is split on commas and newlines in
    one call. From the first block with a quote, a carriage return outside a
    ``\r\n``, a blank line, a row of the wrong width or more characters than
    ``csv.reader``'s field limit on, ``csv.reader`` reads the rest of the file,
    so a quoted field may span lines. A file with no line, a wrong header or width, or a field
    ``csv.reader`` rejects, raises :class:`DataFormatError` at its line once
    the rows before it are yielded.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = _next_row(path, reader)
        if first is None:
            raise DataFormatError(path, 1, "file is empty")
        if first != header:
            raise DataFormatError(path, 1, f"header must be {','.join(header)}")
        width, span = len(header), len(header) + 1
        line = reader.line_num
        while text := fh.read(_BLOCK_BYTES) + fh.readline():
            # so a lone "\r" is left to csv.reader; replace scans slowly, "in" does not
            lines = text.replace("\r\n", "\n") if "\r" in text else text
            # each line of a plain block is one row: its fields, then one "\n" token
            plain = lines.removesuffix("\n") + "\n"
            tokens = plain.replace("\n", ",\n,").split(",")[:-1]
            rows = plain.count("\n")
            if (
                '"' in lines or "\r" in lines or "\n\n" in lines or lines.startswith("\n")
                or len(tokens) != rows * span or tokens[width::span].count("\n") != rows
                or len(text) > csv.field_size_limit()
            ):
                yield from _csv_blocks(path, chain(io.StringIO(text, newline=""), fh), width, line)
                return
            yield [range(line + 1, line + 1 + rows), *(tokens[i::span] for i in range(width))]
            line += rows


def _csv_blocks(path: str | Path, lines, width: int, line: int):
    """:func:`_read_blocks` by ``csv.reader``, ``_BLOCK_ROWS`` rows at a time, over
    ``lines``, the lines after line ``line``."""
    reader, block, error = csv.reader(lines), [], None
    try:
        for row in filter(None, reader):  # blank lines carry no row
            if len(row) != width:
                error = f"expected {width} columns, got {len(row)}"
                break
            block.append((line + reader.line_num, *row))
            if len(block) == _BLOCK_ROWS:
                yield list(zip(*block))
                block = []
    except csv.Error as exc:
        error = str(exc)
    if block:
        yield list(zip(*block))
    if error is not None:
        raise DataFormatError(path, line + reader.line_num, error)


class _Codes(dict):
    """A column's texts, each decoded once per file: ``code(parse(text))``, and -2 where
    ``parse`` raises ``ValueError``."""

    def __init__(self, parse, code=lambda value: value) -> None:
        self.parse, self.code = parse, code

    def __missing__(self, text: str):
        try:
            value = self.parse(text)
        except ValueError:
            self[text] = -2
        else:
            self[text] = self.code(value)
        return self[text]

    def array(self, column, dtype=np.intp) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, column), dtype, len(column))


def _positions(names, parse=str) -> _Codes:
    """Codes of a text's position among ``names`` once parsed: -1 outside them, and -2
    where ``parse`` raises ``ValueError``. So ``int`` reads ``01`` and `` 3`` as 1 and 3."""
    position = {name: i for i, name in enumerate(names)}
    return _Codes(parse, lambda value: position.get(value, -1))


def _error(parse, text: str) -> str | None:
    """The message of the ``ValueError`` that ``parse(text)`` raises, if it raises one."""
    try:
        parse(text)
    except ValueError as exc:
        return str(exc)


def _repeats(flat: np.ndarray, written: np.ndarray) -> np.ndarray:
    """Which cells of ``flat`` an earlier row wrote: in an earlier block, as marked in
    ``written``, or in this one."""
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    return written.reshape(-1)[flat] | ~first


def _check(path: str | Path, line_numbers, checks) -> None:
    """Reject the first row of a block that a check rejects, at its line, with the message
    of the first check that rejects it. ``checks`` are (mask of the rows a check rejects,
    message for row ``i``) pairs, in the order a row is checked."""
    rejected = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if rejected.size:
        i = int(rejected[0])
        message = next(message for mask, message in checks if mask[i])
        raise DataFormatError(path, line_numbers[i], message(i))


def _cell(text: str) -> float:
    """A feature cell's value: 0 for a blank cell, NaN for text that is not a number."""
    try:
        return float(text)
    except ValueError:
        return np.nan if text.strip() else 0.0


def _cells(column) -> np.ndarray:
    """A feature column's values, as :func:`_cell` gives them: by ``float`` alone unless
    the column holds a blank cell or text that is not a number."""
    try:
        return np.fromiter(map(float, column), float, len(column))
    except ValueError:
        return np.fromiter(map(_cell, column), float, len(column))


def _cell_error(cells) -> str:
    """The message of the first of a row's feature cells that is not a finite number."""
    bad = next(cell for cell in cells if not math.isfinite(_cell(cell)))
    if _error(float, bad):
        return f"feature cell {bad!r} is not a number"
    return "feature cells must be finite"


def load_dataset(
    edge_file: str | Path,
    feature_file: str | Path,
    label_file: str | Path,
) -> Dataset:
    """Load and validate the three-file CSV dataset format: each file read once by
    :func:`_read_blocks`, each rule one mask over a block's columns (see :func:`_check`)."""
    feature_path = Path(feature_file)
    with open(feature_path, newline="") as fh:
        header = _next_row(feature_path, csv.reader(fh))
    if header is not None and (len(header) < 3 or header[:2] != ["day", "node"]):
        raise DataFormatError(feature_path, 1, "header must be day,node,f0,...")
    day_codes: dict[int, int] = {}
    days = _Codes(int, lambda day: day_codes.setdefault(day, len(day_codes)))
    nodes = _Codes(int, lambda node: node if node >= 0 else -1)
    seen: dict[tuple[int, int], int] = {}  # each (day code, node) key -> its first row
    keys, values = [], []
    for line_numbers, day, node, *cells in _read_blocks(feature_path, header):
        d, n = days.array(day), nodes.array(node)
        rows = np.arange(len(seen), len(seen) + len(d))
        first = np.fromiter(map(seen.setdefault, zip(d.tolist(), n.tolist()), rows.tolist()), int)
        v = np.column_stack([_cells(c) for c in cells])
        _check(feature_path, line_numbers, [
            (d == -2, lambda i: f"day {day[i]!r} is not an integer"),
            (n == -2, lambda i: f"node {node[i]!r} is not an integer"),
            (n == -1, lambda i: f"unknown node id {int(node[i])}"),
            (first != rows, lambda i: f"duplicate (day,node) row ({int(day[i])},{int(node[i])})"),
            (~np.isfinite(v).all(axis=1), lambda i: _cell_error([c[i] for c in cells])),
        ])
        keys.append(np.column_stack((d, n)))
        values.append(v)
    if not keys:
        raise DataFormatError(feature_path, 2, "no feature rows")
    d, n = np.concatenate(keys).T
    day_indices = sorted(day_codes)
    rank = np.argsort([day_codes[day] for day in day_indices])  # each day code's place
    features = np.zeros((len(day_indices), int(n.max()) + 1, len(header) - 2))
    features[rank[d], n] = np.concatenate(values)
    node_count = features.shape[1]

    edge_path = Path(edge_file)
    nodes = _positions(range(node_count), int)
    edges = [np.zeros((0, 2), dtype=np.intp)]
    for line_numbers, src, dst in _read_blocks(edge_path, ["src", "dst"]):
        u, v = nodes.array(src), nodes.array(dst)
        _check(edge_path, line_numbers, [
            (u == -2, lambda i: f"src {src[i]!r} is not an integer"),
            (v == -2, lambda i: f"dst {dst[i]!r} is not an integer"),
            ((u < 0) | (v < 0), lambda i: f"edge ({int(src[i])},{int(dst[i])}) references an"
             " unknown node id"),
            (u == v, lambda i: f"self-loop at node {int(src[i])}"),
        ])
        edges.append(np.column_stack((u, v)))
    graph = Graph.from_edges(node_count, np.concatenate(edges))

    label_path = Path(label_file)
    days, binary = _positions(day_indices, int), _positions(["0", "1"])
    labels = np.full(features.shape[:2], MISSING_LABEL)
    written = np.zeros(labels.shape, dtype=bool)
    for line_numbers, day, node, label in _read_blocks(label_path, ["day", "node", "label"]):
        d, n, y = days.array(day), nodes.array(node), binary.array(label)
        flat = np.ravel_multi_index((np.maximum(d, 0), np.maximum(n, 0)), labels.shape)
        _check(label_path, line_numbers, [
            (d == -2, lambda i: f"day {day[i]!r} is not an integer"),
            (n == -2, lambda i: f"node {node[i]!r} is not an integer"),
            (d == -1, lambda i: f"day {int(day[i])} has no feature rows"),
            (n == -1, lambda i: f"unknown node id {int(node[i])}"),
            (y < 0, lambda i: f"label {label[i]!r} is not binary (expected 0 or 1)"),
            (_repeats(flat, written), lambda i: f"duplicate label row ({int(day[i])},"
             f"{int(node[i])})"),
        ])
        written.reshape(-1)[flat] = True
        labels.reshape(-1)[flat] = y

    frames = tuple(map(DayFrame, day_indices, features, labels))
    return Dataset(graph=graph, days=frames, feature_dim=features.shape[2])


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write edges.csv / features.csv / labels.csv; floats use repr so loads round-trip."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {kind: out / f"{kind}.csv" for kind in ("edges", "features", "labels")}
    _write_csv(paths["edges"], ["src", "dst"], list(dataset.graph.pairs.T))
    # each (day, node) row, in (day, node) order; a day index is any integer, so it is a name
    n, days = dataset.node_count, dataset.day_count
    day = ([str(frame.day_index) for frame in dataset.days], np.repeat(np.arange(days), n))
    node = np.tile(np.arange(n), days)
    features = np.array([frame.features for frame in dataset.days]).reshape(-1, dataset.feature_dim)
    header = ["day", "node"] + [f"f{j}" for j in range(dataset.feature_dim)]
    _write_csv(paths["features"], header, [day, node, *features.T])
    labels = np.array([frame.labels for frame in dataset.days], dtype=np.intp).reshape(-1)
    kept = labels != MISSING_LABEL
    day = (day[0], day[1][kept])
    _write_csv(paths["labels"], ["day", "node", "label"], [day, node[kept], labels[kept]])
    return paths


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticConfig:
    """Stochastic-block-model sensor stream with regime-shifting signals.

    Nodes live in near-equal contiguous community blocks. Each community
    carries a scalar signal redrawn at every regime boundary; a node's
    label is positive when signal + its fixed offset exceeds zero, and
    feature 0 carries exactly that quantity plus noise. The remaining
    features hold per-community context values that also shift per regime.
    """

    node_count: int = 40
    community_count: int = 2
    days: int = 30
    feature_dim: int = 4
    regime_period: int = 7
    p_in: float = 0.35
    p_out: float = 0.05
    noise: float = 0.4
    offset_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.node_count < 10:
            raise ValueError("node_count must be at least 10")
        if self.community_count < 2:
            raise ValueError("community_count must be at least 2")
        if self.days < 4:
            raise ValueError("days must be at least 4")
        if self.feature_dim < 2:
            raise ValueError("feature_dim must be at least 2")
        if self.regime_period < 2:
            raise ValueError("regime_period must be at least 2")
        if not 0.0 <= self.p_out <= 1.0 or not 0.0 <= self.p_in <= 1.0:
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.p_in <= self.p_out:
            raise ValueError("p_in must exceed p_out or communities are undetectable")
        if self.noise < 0 or self.offset_scale <= 0:
            raise ValueError("noise must be >= 0 and offset_scale > 0")


def synthetic_communities(config: SyntheticConfig) -> np.ndarray:
    """Ground-truth community of each node (contiguous near-equal blocks)."""
    base = config.node_count // config.community_count
    extra = config.node_count % config.community_count
    sizes = [base + (1 if c < extra else 0) for c in range(config.community_count)]
    return np.repeat(np.arange(config.community_count), sizes)


def generate_synthetic(config: SyntheticConfig, seed: int) -> Dataset:
    """Deterministic synthetic dataset; identical seeds give identical bits."""
    rng = np.random.default_rng(seed)
    community = synthetic_communities(config)
    n = config.node_count

    # one uniform draw per node pair, in (u, v) row-major order
    u, v = np.triu_indices(n, 1)
    p = np.where(community[u] == community[v], config.p_in, config.p_out)
    edge = rng.random(u.size) < p
    graph = Graph.from_edges(n, np.column_stack((u[edge], v[edge])))

    offsets = rng.normal(0.0, config.offset_scale, size=n)
    regime_count = -(-config.days // config.regime_period)
    signal = rng.normal(0.0, 1.0, size=(config.community_count, regime_count))
    # center each regime's signals across communities so the label mix stays
    # balanced regardless of how the shared draws land
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
    return Dataset(graph=graph, days=tuple(frames), feature_dim=config.feature_dim)


# ---------------------------------------------------------------------------
# Holdout / pool split
# ---------------------------------------------------------------------------


def make_split(dataset: Dataset, holdout_fraction: float, seed: int) -> Split:
    """Uniform random holdout of round(fraction * N) nodes; the rest is the pool."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ValueError("holdout_fraction must lie strictly between 0 and 1")
    n = dataset.node_count
    holdout_size = int(round(holdout_fraction * n))
    if holdout_size == 0 or holdout_size == n:
        raise ValueError(
            f"holdout_fraction {holdout_fraction} leaves an empty holdout or pool for N={n}"
        )
    rng = np.random.default_rng(seed)
    holdout = rng.choice(n, size=holdout_size, replace=False)
    pool = np.setdiff1d(np.arange(n), holdout)
    return Split(holdout=tuple(int(v) for v in holdout), pool=tuple(int(v) for v in pool))
