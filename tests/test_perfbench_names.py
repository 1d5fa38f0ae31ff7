"""Every ``sqgde`` name the benchmark scripts under ``perfbench/`` use exists.

``perfbench/`` times functions that no run loop calls (the one-row DE
operators, ``init_population``), so nothing else in the package keeps them.
This guard reads each ``perfbench/*.py`` with ``ast``, without importing or
running it, and resolves against the package:

* each ``from sqgde... import X``;
* each attribute of a name bound to a ``sqgde`` module in that file, and of
  a name ``harness`` (``pipeline.py`` and ``layers.py`` take the module as a
  parameter);
* each name in the tuple that ``tracing.traced_harness`` rebinds on it.

It does not cover members of objects (``pop.members``,
``evaluator.evaluate``) or signatures: a call with a dropped keyword still
passes here.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _used_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each ``sqgde`` name a perfbench file uses."""
    used, modules = set(), {"harness": "sqgde.harness"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqgde":
            for alias in node.names:
                used.add((node.module, alias.name))
                if node.module == "sqgde":  # a submodule, whose attributes are checked below
                    modules[alias.asname or alias.name] = f"sqgde.{alias.name}"
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name.split(".")[0] == "sqgde")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.FunctionDef) and node.name == "traced_harness":
            for assign in ast.walk(node):
                if isinstance(assign, ast.Assign) and [getattr(t, "id", None) for t in assign.targets] == ["names"]:
                    used.update(("sqgde.harness", elt.value) for elt in assign.value.elts)
    return used


def _exists(module: str, name: str) -> bool:
    if module == "sqgde" and importlib.util.find_spec(f"sqgde.{name}") is not None:  # a submodule
        return True
    return hasattr(importlib.import_module(module), name)


def _perfbench_names() -> set[tuple[str, str]]:
    return set().union(*(_used_names(ast.parse(path.read_text())) for path in sorted(PERFBENCH.glob("*.py"))))


def test_every_sqgde_name_perfbench_uses_exists():
    used = _perfbench_names()
    # The walk finds each kind of use: an import, a module attribute, a parameter's and a rebound name.
    assert {
        ("sqgde.core", "init_population"),
        ("sqgde.algos", "mutate_rand1"),
        ("sqgde.harness", "run_benchmark"),
        ("sqgde.harness", "bnfv_on_grid"),
    } <= used
    missing = [f"{module}.{name}" for module, name in sorted(used) if not _exists(module, name)]
    assert not missing, f"perfbench/ uses names that sqgde no longer has: {', '.join(missing)}"
