"""The benchmark tracer (perfbench/tracing.py) wraps statorguard calls by
module attribute; a name it wraps that no longer resolves breaks every
traced benchmark run (`perfbench/run.py --trace 1`)."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_targets_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    assert tracing.TARGETS
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"statorguard.{module_name}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"statorguard.{module_name}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"statorguard.{module_name}.{attr} is not callable"
