"""The benchmark's tracer wraps functions by name; every name must resolve.

``perfbench/spans.py`` replaces each name in its ``TRACED`` table with a
timing wrapper, in the module that looks it up. A refactor that drops one
of those names breaks ``perfbench/run.py --trace 1`` with an
``AttributeError`` and nothing else notices.
"""

import importlib
from pathlib import Path

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
