"""The benchmark reads galstream by name; every name and shape it reads must hold.

``perfbench/spans.py`` replaces each name in its ``TRACED`` table with a
timing wrapper, in the module that looks it up. A refactor that drops one
of those names breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` and nothing else notices. A refactor that stops calling
one leaves its per-layer metric reading 0, which nothing notices either.
Likewise every benchmark op is gated on ``perfbench/workloads.py::check_run``,
which reads the shape of a ``RunResult``; a change to that shape would fail
every op.
"""

import importlib
from collections import Counter
from pathlib import Path

from galstream import (
    STRATEGY_NAMES,
    ExperimentConfig,
    SyntheticConfig,
    emit_reports,
    generate_synthetic,
    recompute_reports,
    run_experiment,
    save_dataset,
)
from galstream.gcn import EMBEDDING_MODES

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{module.__name__}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(module, name, None))
    ]
    assert spans.TRACED
    assert missing == []


# names the engine binds only so that perfbench can trace them, and never calls
PERFBENCH_ONLY = {
    "harness.cpi",
    "reports.rolling_mean_std",
    "reports.centrality_burden_correlation",
}


def test_every_traced_name_is_called(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    calls = Counter()

    def counted(key, fn):
        def counting(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counting

    keys = []
    for module, names in spans.TRACED.items():
        for name in names:
            key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
            keys.append(key)
            monkeypatch.setattr(module, name, counted(key, getattr(module, name)))

    synthetic = SyntheticConfig(node_count=14, days=8, feature_dim=2, regime_period=3)
    files = save_dataset(generate_synthetic(synthetic, 1), tmp_path / "data")
    sources = {
        "synthetic": {},
        "files": {f"{kind}_path": str(path) for kind, path in files.items()},
    }
    for source, paths in sources.items():
        for mode in EMBEDDING_MODES:
            config = ExperimentConfig(
                source=source,
                **paths,
                synthetic=synthetic,
                initial_days=2,
                queries_per_day=2,
                bootstraps=2,
                epochs=5,
                embedding_mode=mode,
                output_dir=str(tmp_path / source / mode),
            )
            assert config.strategies == STRATEGY_NAMES and config.workers == 1
            emitted = emit_reports(run_experiment(config), config)
            recompute_reports(emitted["daily.csv"].parent)
    assert {key for key in keys if not calls[key]} == PERFBENCH_ONLY


def test_check_run_passes_a_finished_study(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    config = ExperimentConfig(
        synthetic=SyntheticConfig(node_count=12, days=8, feature_dim=2, regime_period=3),
        strategies=("no_al", "random", "degree"),
        initial_days=2,
        queries_per_day=2,
        bootstraps=2,
        epochs=5,
    )
    result = run_experiment(config)
    assert workloads.check_run(result, config, config.synthetic.days) == []
