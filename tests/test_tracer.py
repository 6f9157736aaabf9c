"""The benchmark's sources name things that exist in `fomdp`.

A change that renames or removes a traced function, or a name the benchmark
imports, would otherwise break only the benchmark run.  The tracer is loaded
from its source file without writing bytecode next to it; the other sources
are only read.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from fomdp import logic
from fomdp.logic import ConsistencyChecker

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


def test_benchmark_imports_resolve():
    imported = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [(a.name, None) for a in node.names if a.name.split(".")[0] == "fomdp"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fomdp":
                names = [(node.module, a.name) for a in node.names]
            else:
                continue
            for module, name in names:
                owner = importlib.import_module(module)
                # `from package import submodule` names a module the package need not have loaded yet
                found = name is None or hasattr(owner, name) or importlib.util.find_spec(f"{module}.{name}")
                assert found, f"{path.name}: {module}.{name}"
                imported += 1
    assert imported >= 17


def test_ground_oracle_tests_formula_kinds_that_are_classes():
    # an `isinstance` against a name that is no longer a class raises TypeError in the oracle
    tree = ast.parse((PERFBENCH / "ground.py").read_text())
    tested = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1]
            tested |= {n.id for n in (kinds.elts if isinstance(kinds, ast.Tuple) else [kinds])}
    formula_kinds = tested & set(vars(logic))
    assert {"Bool", "Atom", "Not", "Exists"} <= formula_kinds
    for name in formula_kinds:
        assert isinstance(getattr(logic, name), type), name
