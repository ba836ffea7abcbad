"""Dataset schema, CSV loading/saving, synthetic generation, and the holdout split.

File formats (all CSV with headers, node ids 0-based):

* ``edges.csv``      -- ``src,dst``; one undirected edge per row.
* ``features.csv``   -- ``day,node,f0,...,f{D-1}``; a blank cell is a missing
  value and is imputed to 0; a (day, node) row that is absent entirely means
  an all-zero feature row.
* ``labels.csv``     -- ``day,node,label`` with label in {0, 1}; absent rows
  mean the label is missing for that (day, node).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
    name: str = "dataset"

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


def _read_rows(path: Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
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


def _parse_int(path: Path, lineno: int, text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise DataFormatError(path, lineno, f"{what} {text!r} is not an integer") from None


def load_dataset(
    edge_file: str | Path,
    feature_file: str | Path,
    label_file: str | Path,
    name: str = "dataset",
) -> Dataset:
    """Load and validate the three-file CSV dataset format."""
    feature_path = Path(feature_file)
    header, rows = _read_rows(feature_path)
    if len(header) < 3 or header[:2] != ["day", "node"]:
        raise DataFormatError(feature_path, 1, "header must be day,node,f0,...")
    feature_dim = len(header) - 2

    cells: dict[tuple[int, int], np.ndarray] = {}
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
            raise DataFormatError(edge_path, lineno, "expected 2 columns")
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
    label_map: dict[tuple[int, int], int] = {}
    day_set = set(day_indices)
    for lineno, row in rows:
        if len(row) != 3:
            raise DataFormatError(label_path, lineno, "expected 3 columns")
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
    return Dataset(graph=graph, days=tuple(frames), feature_dim=feature_dim, name=name)


def save_dataset(dataset: Dataset, out_dir: str | Path) -> dict[str, Path]:
    """Write edges.csv / features.csv / labels.csv; floats use repr so loads round-trip."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": out / "edges.csv",
        "features": out / "features.csv",
        "labels": out / "labels.csv",
    }
    with open(paths["edges"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src", "dst"])
        for u, v in dataset.graph.edges:
            writer.writerow([u, v])
    with open(paths["features"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "node"] + [f"f{j}" for j in range(dataset.feature_dim)])
        for frame in dataset.days:
            for node in range(dataset.node_count):
                writer.writerow(
                    [frame.day_index, node]
                    + [repr(float(x)) for x in frame.features[node]]
                )
    with open(paths["labels"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "node", "label"])
        for frame in dataset.days:
            for node in range(dataset.node_count):
                if frame.labels[node] != MISSING_LABEL:
                    writer.writerow([frame.day_index, node, int(frame.labels[node])])
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
    name: str = "synthetic"

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
    graph = Graph.from_edges(n, zip(u[edge].tolist(), v[edge].tolist()))

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
    return Dataset(
        graph=graph, days=tuple(frames), feature_dim=config.feature_dim, name=config.name
    )


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
