"""The benchmark's workloads: set-up, one timed op, and the op's correctness gate.

Every op drives galstream's public API the way its command line does:
``galstream run`` is ``run_experiment`` + ``emit_reports``, and
``galstream report`` is ``recompute_reports``. Each op starts with cold
graph caches (see ``COLD_CACHES``) and is gated on its outputs.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from galstream import (
    EVAL_CATEGORIES,
    PERFORMANCE_METRICS,
    STRATEGY_NAMES,
    ExperimentConfig,
    SyntheticConfig,
    datasets,
    harness,
    reports,
    validate_config,
)

import spans

DAYS = 30
# The synthetic stream of configs/example.ini. The benchmark seed drives every
# unit's holdout split, model initialisation and strategy randomness; a stream
# drawn per seed doubles the spread of cpi_accuracy across seeds.
DATASET_SEED = 1
CPI_KEY = ("unqueried_same_day", "cpi_accuracy")
COLD_CACHES = (
    "galstream.graphs caches centralities and partitions per graph for the life of a "
    "process, and a command-line user pays for them once per process, so every timed op "
    "clears them first."
)


@dataclass
class OpResult:
    run_s: float | None  # run_experiment wall time; None when the op runs no study
    report_s: list[float]  # one wall time per report call
    units: int
    cpi_accuracy: float
    digests: dict[str, str]
    bytes_written: int
    cache_hits: int = 0
    cache_misses: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return (self.run_s or 0.0) + sum(self.report_s)


def report_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every report file; the manifest's ``created_at`` is left out."""
    out = {}
    for name in reports.REPORT_FILES:
        data = (out_dir / name).read_bytes()
        if name == "run_manifest.json":
            manifest = json.loads(data)
            manifest.pop("created_at", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _mean_cpi(aggregate, strategies) -> float | None:
    values = [aggregate.get((s, *CPI_KEY)) for s in strategies]
    if any(v is None for v in values):
        return None
    return sum(v[0] for v in values) / len(values)


def check_run(result, config, day_count: int) -> list[str]:
    """Invariants every finished study must meet."""
    problems = []
    if result.failures:
        strategy, bootstrap, message = result.failures[0]
        problems.append(
            f"{len(result.failures)} units failed, first {strategy}/{bootstrap}: {message}"
        )
    query_days = day_count - 1 - config.initial_days
    metrics = len(PERFORMANCE_METRICS)
    per_day = {
        s: metrics * (len(EVAL_CATEGORIES) - (1 if s == "no_al" else 0))
        for s in config.strategies
    }
    expected = config.bootstraps * query_days * sum(per_day.values())
    if len(result.records) != expected:
        problems.append(f"{len(result.records)} metric records, expected {expected}")
    if any(r.value is not None and not 0.0 <= r.value <= 1.0 for r in result.records):
        problems.append("a metric value lies outside [0, 1]")
    for (strategy, bootstrap), trained in result.trained_nodes.items():
        if trained & set(result.splits[bootstrap].holdout):
            problems.append(f"{strategy}/{bootstrap} trained on holdout nodes")
    for (strategy, bootstrap), log in result.query_logs.items():
        want = 0 if strategy == "no_al" else config.queries_per_day * query_days
        if log.total_queries != want:
            problems.append(f"{strategy}/{bootstrap} made {log.total_queries} queries, not {want}")
    return problems


def _caller(tracer):
    if tracer is None:
        return lambda name, fn, *args: fn(*args)
    return tracer.call


@dataclass(frozen=True)
class Study:
    """Each op is one ``galstream run``: run_experiment, then emit_reports."""

    name: str
    nodes: int
    strategies: tuple[str, ...]
    workers: int
    epochs: int
    learning_rate: float
    cpi_floor: float  # a mean CPI below this means the model did not learn
    bootstraps: int = 1
    emits: int = 1  # emit_reports calls per untraced op; report_s is their median
    setup_repeats: int = 25
    setup_what = "validate the config, prepare the output directory and build the dataset"

    @property
    def single_process(self) -> bool:
        return self.workers == 1

    def config(self, seed: int, out_dir: Path) -> ExperimentConfig:
        return ExperimentConfig(
            synthetic=SyntheticConfig(node_count=self.nodes, days=DAYS),
            synthetic_seed=DATASET_SEED,
            base_seed=seed,
            strategies=self.strategies,
            bootstraps=self.bootstraps,
            workers=self.workers,
            epochs=self.epochs,
            learning_rate=self.learning_rate,
            output_dir=str(out_dir),
        )

    def setup(self, seed: int, work: Path) -> dict:
        """What ``galstream run`` does before its timer starts."""
        config = self.config(seed, work / "run")
        validate_config(config)
        reports.prepare_output_dir(config.output_dir)
        return {"config": config, "dataset": harness.load_configured_dataset(config)}

    def op(self, state: dict, tracer=None) -> OpResult:
        config, dataset = state["config"], state["dataset"]
        emits = self.emits
        if tracer is not None:
            config = replace(config, workers=1)  # spans are recorded in this process only
            emits = 1
        call = _caller(tracer)
        spans.clear_graph_caches()
        started = perf_counter()
        result = call("harness.run_experiment", harness.run_experiment, config, dataset)
        run_s = perf_counter() - started
        report_s, digests = [], []
        for _ in range(emits):
            spans.clear_graph_caches()
            started = perf_counter()
            paths = call("reports.emit_reports", reports.emit_reports, result, config, dataset)
            report_s.append(perf_counter() - started)
            digests.append(report_digests(Path(config.output_dir)))
        hits, misses = spans.graph_cache_counts()

        problems = check_run(result, config, dataset.day_count)
        if any(d != digests[0] for d in digests):
            problems.append("repeated emit_reports calls wrote different bytes")
        cpi = _mean_cpi(result.aggregate, config.strategies)
        if cpi is None or not self.cpi_floor <= cpi <= 1.0:
            problems.append(f"mean {CPI_KEY[1]} {cpi} outside [{self.cpi_floor}, 1]")
        return OpResult(
            run_s=run_s,
            report_s=report_s,
            units=len(config.strategies) * config.bootstraps - len(result.failures),
            cpi_accuracy=cpi or 0.0,
            digests=digests[0],
            bytes_written=sum(p.stat().st_size for p in paths.values()),
            cache_hits=hits,
            cache_misses=misses,
            problems=problems,
        )


@dataclass(frozen=True)
class Reports:
    """Each op is one ``galstream report`` over a finished run directory."""

    name: str
    nodes: int
    bootstraps: int
    epochs: int
    workers: int
    setup_repeats: int = 2
    single_process = True
    setup_what = (
        "write the dataset files, run the short-training study into a run directory "
        "and emit its reports"
    )

    def setup(self, seed: int, work: Path) -> dict:
        dataset = harness.load_configured_dataset(
            ExperimentConfig(
                synthetic=SyntheticConfig(node_count=self.nodes, days=DAYS),
                synthetic_seed=DATASET_SEED,
            )
        )
        files = datasets.save_dataset(dataset, work / "data")
        config = ExperimentConfig(
            source="files",
            name="bench",
            edges_path=str(files["edges"]),
            features_path=str(files["features"]),
            labels_path=str(files["labels"]),
            base_seed=seed,
            bootstraps=self.bootstraps,
            workers=self.workers,
            epochs=self.epochs,
            output_dir=str(work / "run"),
        )
        result = harness.run_experiment(config)
        reports.emit_reports(result, config)
        out_dir = Path(config.output_dir)
        return {
            "run_dir": out_dir,
            "units": len(config.strategies) * config.bootstraps,
            "expected": report_digests(out_dir),
            "problems": check_run(result, config, dataset.day_count),
        }

    def op(self, state: dict, tracer=None) -> OpResult:
        call = _caller(tracer)
        spans.clear_graph_caches()
        started = perf_counter()
        paths = call("reports.recompute_reports", reports.recompute_reports, state["run_dir"])
        finished = perf_counter()
        hits, misses = spans.graph_cache_counts()

        digests = report_digests(state["run_dir"])
        problems = list(state["problems"])
        differ = sorted(n for n in digests if digests[n] != state["expected"][n])
        if differ:
            problems.append(f"recomputed reports differ from the emitted ones: {differ}")
        with open(paths["aggregate.csv"], newline="") as fh:
            cpis = [
                float(row["mean"])
                for row in csv.DictReader(fh)
                if (row["category"], row["metric"]) == CPI_KEY
            ]
        if len(cpis) != len(STRATEGY_NAMES):
            problems.append(f"aggregate.csv holds {len(cpis)} {CPI_KEY[1]} rows")
        return OpResult(
            run_s=None,
            report_s=[finished - started],
            units=state["units"],
            cpi_accuracy=sum(cpis) / len(cpis) if cpis else 0.0,
            digests=digests,
            bytes_written=sum(p.stat().st_size for p in paths.values()),
            cache_hits=hits,
            cache_misses=misses,
            problems=problems,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Study(
            name="study-small",
            nodes=40,
            strategies=STRATEGY_NAMES,
            workers=2,
            epochs=200,
            learning_rate=0.05,
            cpi_floor=0.58,
            emits=12,
        ),
        Study(
            name="study-large",
            nodes=300,
            strategies=("uncertainty_entropy", "coreset", "graphpartfar", "age"),
            workers=1,
            epochs=10,  # the default 200 makes one op take about 80 s
            learning_rate=0.2,  # so 10 epochs still lift cpi_accuracy well above chance
            cpi_floor=0.6,
            bootstraps=2,  # one 4-unit run varied too much from op to op
            setup_repeats=11,
        ),
        Reports(
            name="reports",
            nodes=40,
            bootstraps=10,
            epochs=1,
            workers=2,
        ),
    )
}
