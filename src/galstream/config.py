"""Experiment configuration: INI-style config files and JSON manifests.

Every key has a default except the dataset source. The same resolved
configuration is written into ``run_manifest.json`` after a run, and that
manifest can be fed back to ``run`` to reproduce the outputs byte for byte.
On a synthetic source each field, changed alone, changes at least one report
CSV or is rejected, except three that change no output: ``name``, the run's
label, ``workers`` and ``output_dir``.
"""

from __future__ import annotations

import configparser
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable

from .datasets import SyntheticConfig
from .exceptions import ConfigError
from .gcn import EMBEDDING_MODES, TrainConfig
from .metrics import PERFORMANCE_METRICS
from .strategies import STRATEGY_NAMES

SIGNIFICANCE_UNITS = ("day", "bootstrap_mean")


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "synthetic"
    name: str = "experiment"
    edges_path: str | None = None
    features_path: str | None = None
    labels_path: str | None = None
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    synthetic_seed: int = 1

    strategies: tuple[str, ...] = STRATEGY_NAMES
    initial_days: int = 6
    queries_per_day: int = 5
    bootstraps: int = 20
    holdout_fraction: float = 0.2
    base_seed: int = 0
    gap_thresholds: tuple[int, ...] = (1, 2, 3, 4, 5)
    reference_gap: int = 3
    rolling_window: int = 5
    embedding_mode: str = "model_based"
    tradeoff_metric: str = "accuracy"
    significance_unit: str = "day"
    workers: int = 1
    output_dir: str = "results"

    hidden_dim: int = 16
    learning_rate: float = 0.05
    epochs: int = 200

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            hidden_dim=self.hidden_dim,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
        )


def validate_config(config: ExperimentConfig) -> None:
    """Check every invariant that does not require reading the dataset files."""
    if config.source not in ("synthetic", "files"):
        raise ConfigError(f"dataset source must be 'synthetic' or 'files', got {config.source!r}")
    for key in ("edges_path", "features_path", "labels_path"):
        if config.source == "files" and not getattr(config, key):
            raise ConfigError(f"dataset source 'files' requires {key}")
        if config.source == "synthetic" and getattr(config, key) is not None:
            raise ConfigError(f"dataset source 'synthetic' reads no files, but {key} is set")
    if not config.strategies:
        raise ConfigError("at least one strategy is required")
    for name in config.strategies:
        if name not in STRATEGY_NAMES:
            raise ConfigError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
    if len(set(config.strategies)) != len(config.strategies):
        raise ConfigError("strategies must not repeat")
    if config.initial_days < 1:
        raise ConfigError("initial_days must be at least 1")
    if config.base_seed < 0 or config.synthetic_seed < 0:
        raise ConfigError("seeds must be nonnegative")
    if config.queries_per_day < 1:
        raise ConfigError("queries_per_day must be at least 1")
    if config.bootstraps < 1:
        raise ConfigError("bootstraps must be at least 1")
    if not 0.0 < config.holdout_fraction < 1.0:
        raise ConfigError("holdout_fraction must lie strictly between 0 and 1")
    if not config.gap_thresholds or any(t < 1 for t in config.gap_thresholds):
        raise ConfigError("gap_thresholds must be a nonempty list of integers >= 1")
    if len(set(config.gap_thresholds)) != len(config.gap_thresholds):
        raise ConfigError("gap_thresholds must not repeat")
    if config.reference_gap < 1:
        raise ConfigError("reference_gap must be at least 1")
    if config.rolling_window < 1:
        raise ConfigError("rolling_window must be at least 1")
    if config.embedding_mode not in EMBEDDING_MODES:
        raise ConfigError(f"embedding_mode must be one of {EMBEDDING_MODES}")
    if config.tradeoff_metric not in PERFORMANCE_METRICS:
        raise ConfigError(f"tradeoff_metric must be one of {PERFORMANCE_METRICS}")
    if config.significance_unit not in SIGNIFICANCE_UNITS:
        raise ConfigError(f"significance_unit must be one of {SIGNIFICANCE_UNITS}")
    if config.workers < 1:
        raise ConfigError("workers must be at least 1")
    if config.hidden_dim < 1:
        raise ConfigError("hidden_dim must be at least 1")
    if config.learning_rate <= 0:
        raise ConfigError("learning_rate must be positive")
    if config.epochs < 0:
        raise ConfigError("epochs must be nonnegative")
    if config.source == "synthetic":
        validate_against_dataset(config, config.synthetic.node_count, config.synthetic.days)


def validate_against_dataset(config: ExperimentConfig, node_count: int, days: int) -> None:
    """Run-time invariants that need the loaded dataset's dimensions."""
    holdout = int(round(config.holdout_fraction * node_count))
    pool = node_count - holdout
    if holdout == 0 or pool == 0:
        raise ConfigError("holdout_fraction leaves an empty holdout or pool")
    if config.queries_per_day > pool:
        raise ConfigError(
            f"queries_per_day={config.queries_per_day} exceeds the pool size {pool}"
        )
    if config.initial_days + 2 > days:
        raise ConfigError(
            f"need initial_days + 2 <= total days "
            f"({config.initial_days} + 2 > {days})"
        )


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _strategy_list(raw: str) -> tuple[str, ...]:
    parts = [part.strip() for part in raw.split(",") if part.strip()]
    if parts == ["all"]:
        return STRATEGY_NAMES
    return tuple(parts)


# [section] key -> (field, cast). A "synthetic." field belongs to SyntheticConfig,
# every other field to ExperimentConfig; a key absent from the file keeps the
# dataclass default.
INI_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "dataset": {
        "source": ("source", str),
        "name": ("name", str),
        "edges": ("edges_path", str),
        "features": ("features_path", str),
        "labels": ("labels_path", str),
    },
    "synthetic": {
        "nodes": ("synthetic.node_count", int),
        "communities": ("synthetic.community_count", int),
        "days": ("synthetic.days", int),
        "feature_dim": ("synthetic.feature_dim", int),
        "regime_period": ("synthetic.regime_period", int),
        "p_in": ("synthetic.p_in", float),
        "p_out": ("synthetic.p_out", float),
        "noise": ("synthetic.noise", float),
        "offset_scale": ("synthetic.offset_scale", float),
        "seed": ("synthetic_seed", int),
    },
    "experiment": {
        "strategies": ("strategies", _strategy_list),
        "initial_days": ("initial_days", int),
        "queries_per_day": ("queries_per_day", int),
        "bootstraps": ("bootstraps", int),
        "holdout_fraction": ("holdout_fraction", float),
        "base_seed": ("base_seed", int),
        "gap_thresholds": ("gap_thresholds", _int_list),
        "reference_gap": ("reference_gap", int),
        "rolling_window": ("rolling_window", int),
        "embedding_mode": ("embedding_mode", str),
        "tradeoff_metric": ("tradeoff_metric", str),
        "significance_unit": ("significance_unit", str),
        "workers": ("workers", int),
        "output_dir": ("output_dir", str),
    },
    "model": {
        "hidden_dim": ("hidden_dim", int),
        "learning_rate": ("learning_rate", float),
        "epochs": ("epochs", int),
    },
}


def load_config(path: str | Path) -> ExperimentConfig:
    """Load an INI config file or a run manifest (JSON)."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if path.suffix == ".json":
        return config_from_dict(read_manifest(path)["config"])
    return _load_ini(path)


def read_manifest(path: str | Path) -> dict:
    """Parse a ``run_manifest.json``: a JSON object whose ``config`` is an object."""
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{path}: a manifest must be a JSON object")
    if not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path}: a manifest needs a 'config' object")
    failures = manifest.get("failures", [])
    if not isinstance(failures, list) or not all(
        isinstance(f, list)
        and len(f) == 3
        and isinstance(f[0], str)
        and type(f[1]) is int
        and isinstance(f[2], str)
        for f in failures
    ):
        raise ConfigError(
            f"{path}: each 'failures' entry must be [strategy, bootstrap, message]"
        )
    return manifest


def _load_ini(path: Path) -> ExperimentConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    for section in parser.sections():
        if section not in INI_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in INI_KEYS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    if not parser.has_option("dataset", "source"):
        raise ConfigError("[dataset] source is required (synthetic or files)")

    fields: dict = {}
    synthetic: dict = {}
    for section, keys in INI_KEYS.items():
        for key, (field_name, cast) in keys.items():
            if not parser.has_option(section, key):
                continue
            raw = parser.get(section, key)
            try:
                value = cast(raw)
            except (ValueError, TypeError):
                raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid value") from None
            owner, _, attr = field_name.rpartition(".")
            (synthetic if owner else fields)[attr] = value
    try:
        fields["synthetic"] = SyntheticConfig(**synthetic)
    except ValueError as exc:
        raise ConfigError(f"[synthetic] {exc}") from None
    config = ExperimentConfig(**fields)
    validate_config(config)
    return config


def config_to_dict(config: ExperimentConfig) -> dict:
    payload = asdict(config)
    payload["strategies"] = list(config.strategies)
    payload["gap_thresholds"] = list(config.gap_thresholds)
    return payload


# The JSON value a manifest may hold for each field type of the config
# dataclasses: a bool is not an int, a float may be written as an int, and
# a tuple is a list of its items.
_JSON_TYPES: dict[str, Callable[[object], bool]] = {
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "int": lambda v: type(v) is int,
    "float": lambda v: type(v) in (int, float),
    "tuple[str, ...]": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "tuple[int, ...]": lambda v: isinstance(v, list) and all(type(x) is int for x in v),
    "SyntheticConfig": lambda v: isinstance(v, dict),
}


def _check_json_types(cls, payload: dict, prefix: str = "") -> None:
    """Reject a manifest value whose JSON type does not fit its field, naming the key."""
    for f in fields(cls):
        if f.name in payload and not _JSON_TYPES[f.type](payload[f.name]):
            raise ConfigError(
                f"invalid manifest config: {prefix}{f.name} = {payload[f.name]!r} "
                f"is not a valid {f.type}"
            )


def config_from_dict(payload: dict) -> ExperimentConfig:
    _check_json_types(ExperimentConfig, payload)
    _check_json_types(SyntheticConfig, payload.get("synthetic", {}), "synthetic.")
    try:
        payload = dict(payload)
        # a manifest written while the stream had a name holds it; the name never took effect
        synthetic = {k: v for k, v in payload.pop("synthetic").items() if k != "name"}
        config = ExperimentConfig(
            synthetic=SyntheticConfig(**synthetic),
            **{
                **payload,
                "strategies": tuple(payload["strategies"]),
                "gap_thresholds": tuple(payload["gap_thresholds"]),
            },
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid manifest config: {exc}") from None
    validate_config(config)
    return config


def override_output_dir(config: ExperimentConfig, output_dir: str | None) -> ExperimentConfig:
    if output_dir is None:
        return config
    return replace(config, output_dir=str(output_dir))
