"""The benchmark tracer's layer list names callables that exist in `fomdp`.

A change that renames or removes a traced function would otherwise break
only the traced benchmark run.  The tracer is loaded from its source file
without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from fomdp.logic import ConsistencyChecker

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_layer_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for layer in tracer.LAYERS:
        module, name = layer.name.split(".")
        assert module in tracer.MODULES, layer.name
        if layer.name == "logic.check":
            target = ConsistencyChecker.__dict__["check"]
        else:
            target = getattr(importlib.import_module(f"fomdp.{module}"), name, None)
        assert callable(target), layer.name
