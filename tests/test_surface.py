"""The package's public surface: nothing public that only tests reach, no third-party import,
and module imports that only point down a fixed order of layers.

Every public top-level function and public method in `src/fomdp` must be
named somewhere in `src/fomdp` or `perfbench` outside its own body (as a
name, an attribute or an import), be a layer that `perfbench/tracer.py`
wraps, or stand on the allowlist below with the reason a user needs it.
The sources are only parsed, never imported, except by a fresh interpreter
that checks the package loads on the standard library alone.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fomdp"
PERFBENCH = ROOT / "perfbench"

ALLOWED = {
    "cases.eval_case": "how a caller reads a value function or Q case in a ground state",
    "cases.case_of": "builds a case from (formula, value) pairs",
    "cases.parse_case": "builds a case from its text form",
    "cases.CaseStatement.pretty": "prints a case",
    "solvers.extract_policy": "turns fitted weights into the greedy policy",
    "solvers.PolicyCase.decide": "runs a policy in a ground state",
    "basisgen.BasisReport.csv_lines": "reports a basis growth",
    "solvers.SolveReport.csv_lines": "reports a FOAPI solve",
    "domains.load_instance": "loads an instance file",
    "domains.load_fixture": "loads a bundled domain and instance",
    "domains.FOMDPInstance.init_state": "the instance's initial ground state, where a policy starts",
    "query.StateIndex.column": "called by generated plan source, which names it in a string",
}


def _parsed(directory: Path) -> dict:
    return {path: ast.parse(path.read_text(), str(path)) for path in sorted(directory.glob("*.py"))}


def _names(tree: ast.AST) -> Counter:
    """How often each identifier occurs as a name, an attribute or an imported name."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, def node) of each public top-level function and public method."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, funcs) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def _traced_layers() -> set:
    """The `Layer("module.function", ...)` names in the tracer's `LAYERS`."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    return {
        node.args[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "Layer"
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def test_public_surface_has_callers():
    package = _parsed(PACKAGE)
    used = Counter()
    for tree in [*package.values(), *_parsed(PERFBENCH).values()]:
        used += _names(tree)
    traced = _traced_layers()
    defined, orphans = set(), []
    for path, tree in package.items():
        for qualname, node in _public_definitions(path.stem, tree):
            defined.add(qualname)
            name = qualname.rpartition(".")[2]
            if used[name] > _names(node)[name] or qualname in traced or qualname in ALLOWED:
                continue
            orphans.append(qualname)
    assert not orphans, "public, yet only tests reach it: " + ", ".join(orphans)
    assert set(ALLOWED) <= defined, "an allowlisted definition is gone: drop it from the list"


# each module imports at module level only from modules before it
LAYERS = ("logic", "query", "cases", "sitcalc", "model", "folp", "solvers", "basisgen", "unidecomp", "domains")


def test_modules_import_only_lower_layers():
    # function-level imports (the two of `logic` from `query`) are outside this rule
    package = _parsed(PACKAGE)
    assert set(LAYERS) == {path.stem for path in package} - {"__init__"}
    upward = [
        f"{path.stem} -> {node.module}"
        for path, tree in package.items()
        if path.stem != "__init__"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level
        if node.module not in LAYERS[: LAYERS.index(path.stem)]
    ]
    assert not upward, "imports from a module at or above its own layer: " + ", ".join(upward)


def test_package_imports_no_numpy():
    # numpy stays a test-only oracle (tests/lp_oracle.py); the LP is plain Python
    code = (
        "import importlib, pkgutil, sys, fomdp\n"
        "names = [m.name for m in pkgutil.iter_modules(fomdp.__path__)]\n"
        "for name in names:\n"
        "    importlib.import_module('fomdp.' + name)\n"
        "print(' '.join(names))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    names, numpy_loaded = out.stdout.splitlines()
    assert set(names.split()) == {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert numpy_loaded == "False"
