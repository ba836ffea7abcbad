"""The benchmark reads galstream by name; every name and shape it reads must hold.

``perfbench/spans.py`` replaces each name in its ``TRACED`` table with a
timing wrapper, in the module that looks it up. A refactor that drops one
of those names breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` and nothing else notices. Likewise every benchmark op is
gated on ``perfbench/workloads.py::check_run``, which reads the shape of a
``RunResult``; a change to that shape would fail every op.
"""

import importlib
from pathlib import Path

from galstream import ExperimentConfig, SyntheticConfig, run_experiment

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
