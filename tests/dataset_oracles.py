"""Pair-at-a-time reference for the synthetic generator, and a row-at-a-time
reference for the dataset loader.

``oracle_generate_synthetic`` is ``generate_synthetic`` with its edges
drawn one node pair at a time, one ``rng.random()`` call each, in (u, v)
row-major order. The library draws every pair's double in one call; the
tests require the same graph and the same day frames, bit for bit, so every
later draw of the stream must see the generator where this loop leaves it.

``oracle_load_dataset`` reads each file with ``csv.reader``, parses each
cell in Python and checks each row in turn, then builds each day's frame
one node at a time. ``load_dataset`` reads a file a block of rows at a time
and checks each rule as one mask over a block; it must give the same
``Dataset`` bits, or the same ``DataFormatError``. ``oracle_save_dataset``
writes each file a row at a time with ``csv.writer``, and ``save_dataset``
must write the same bytes. Slow on purpose.
"""

import csv
import math
from pathlib import Path

import numpy as np

from galstream import Dataset, DataFormatError, DayFrame, Graph, synthetic_communities
from galstream.gcn import MISSING_LABEL


def oracle_generate_synthetic(config, seed):
    rng = np.random.default_rng(seed)
    community = synthetic_communities(config)
    n = config.node_count

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = config.p_in if community[u] == community[v] else config.p_out
            if rng.random() < p:
                edges.append((u, v))
    graph = Graph.from_edges(n, edges)

    offsets = rng.normal(0.0, config.offset_scale, size=n)
    regime_count = -(-config.days // config.regime_period)
    signal = rng.normal(0.0, 1.0, size=(config.community_count, regime_count))
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


def _read_rows(path):
    """The header, and each non-blank row with its (last) line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise DataFormatError(path, reader.line_num, str(exc)) from None
    if header is None:
        raise DataFormatError(path, 1, "file is empty")
    return header, rows


def _parse_int(path, lineno, text, what):
    try:
        return int(text)
    except ValueError:
        raise DataFormatError(path, lineno, f"{what} {text!r} is not an integer") from None


def oracle_load_dataset(edge_file, feature_file, label_file):
    feature_path = Path(feature_file)
    header, rows = _read_rows(feature_path)
    if len(header) < 3 or header[:2] != ["day", "node"]:
        raise DataFormatError(feature_path, 1, "header must be day,node,f0,...")
    feature_dim = len(header) - 2

    cells = {}
    for lineno, row in rows:
        if len(row) != feature_dim + 2:
            raise DataFormatError(
                feature_path, lineno, f"expected {feature_dim + 2} columns, got {len(row)}"
            )
        day = _parse_int(feature_path, lineno, row[0], "day")
        node = _parse_int(feature_path, lineno, row[1], "node")
        if node < 0:
            raise DataFormatError(feature_path, lineno, f"unknown node id {node}")
        if (day, node) in cells:
            raise DataFormatError(feature_path, lineno, f"duplicate (day,node) row ({day},{node})")
        values = np.zeros(feature_dim)
        for j, cell in enumerate(row[2:]):
            if cell.strip() == "":
                continue  # missing cell, imputed to 0
            try:
                value = float(cell)
            except ValueError:
                raise DataFormatError(
                    feature_path, lineno, f"feature cell {cell!r} is not a number"
                ) from None
            if not math.isfinite(value):
                raise DataFormatError(feature_path, lineno, "feature cells must be finite")
            values[j] = value
        cells[(day, node)] = values
    if not cells:
        raise DataFormatError(feature_path, 2, "no feature rows")
    node_count = max(node for _, node in cells) + 1
    day_indices = sorted(set(day for day, _ in cells))

    edge_path = Path(edge_file)
    header, rows = _read_rows(edge_path)
    if header != ["src", "dst"]:
        raise DataFormatError(edge_path, 1, "header must be src,dst")
    edges = []
    for lineno, row in rows:
        if len(row) != 2:
            raise DataFormatError(edge_path, lineno, f"expected 2 columns, got {len(row)}")
        u = _parse_int(edge_path, lineno, row[0], "src")
        v = _parse_int(edge_path, lineno, row[1], "dst")
        if not (0 <= u < node_count and 0 <= v < node_count):
            raise DataFormatError(edge_path, lineno, f"edge ({u},{v}) references an unknown node id")
        if u == v:
            raise DataFormatError(edge_path, lineno, f"self-loop at node {u}")
        edges.append((u, v))
    graph = Graph.from_edges(node_count, edges)

    label_path = Path(label_file)
    header, rows = _read_rows(label_path)
    if header != ["day", "node", "label"]:
        raise DataFormatError(label_path, 1, "header must be day,node,label")
    label_map = {}
    day_set = set(day_indices)
    for lineno, row in rows:
        if len(row) != 3:
            raise DataFormatError(label_path, lineno, f"expected 3 columns, got {len(row)}")
        day = _parse_int(label_path, lineno, row[0], "day")
        node = _parse_int(label_path, lineno, row[1], "node")
        if day not in day_set:
            raise DataFormatError(label_path, lineno, f"day {day} has no feature rows")
        if not 0 <= node < node_count:
            raise DataFormatError(label_path, lineno, f"unknown node id {node}")
        if row[2] not in ("0", "1"):
            raise DataFormatError(
                label_path, lineno, f"label {row[2]!r} is not binary (expected 0 or 1)"
            )
        if (day, node) in label_map:
            raise DataFormatError(label_path, lineno, f"duplicate label row ({day},{node})")
        label_map[(day, node)] = int(row[2])

    frames = []
    for day in day_indices:
        feats = np.zeros((node_count, feature_dim))
        labels = np.full(node_count, MISSING_LABEL, dtype=int)
        for node in range(node_count):
            if (day, node) in cells:
                feats[node] = cells[(day, node)]
            if (day, node) in label_map:
                labels[node] = label_map[(day, node)]
        frames.append(DayFrame(day_index=day, features=feats, labels=labels))
    return Dataset(graph=graph, days=tuple(frames), feature_dim=feature_dim)


def oracle_save_dataset(dataset, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {kind: out / f"{kind}.csv" for kind in ("edges", "features", "labels")}
    with open(paths["edges"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst"])
        for u, v in dataset.graph.edges:
            writer.writerow([u, v])
    with open(paths["features"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day", "node"] + [f"f{j}" for j in range(dataset.feature_dim)])
        for frame in dataset.days:
            for node in range(dataset.node_count):
                writer.writerow(
                    [frame.day_index, node] + [repr(float(x)) for x in frame.features[node]]
                )
    with open(paths["labels"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day", "node", "label"])
        for frame in dataset.days:
            for node in range(dataset.node_count):
                if frame.labels[node] != MISSING_LABEL:
                    writer.writerow([frame.day_index, node, int(frame.labels[node])])
    return paths
