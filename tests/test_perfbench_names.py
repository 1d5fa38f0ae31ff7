"""Every ``sqgde`` name the benchmark scripts under ``perfbench/`` use exists, with the keywords they pass.

``perfbench/`` times functions that no run loop calls (the one-row DE
operators, ``init_population``), so nothing else in the package keeps them.
This guard reads each ``perfbench/*.py`` with ``ast``, without importing or
running it, and resolves against the package:

* each ``from sqgde... import X``;
* each attribute of a name bound to a ``sqgde`` module in that file, and of
  a name ``harness`` (``pipeline.py`` and ``layers.py`` take the module as a
  parameter);
* each name in the tuple that ``tracing.traced_harness`` rebinds on it;
* each keyword of a call to one of those names, which must be a parameter
  of the callable (``inspect.signature``), such as ``dim=`` of
  ``make_test_function``;
* each parameter of a wrapper that ``traced_harness`` defines under a
  rebound name, which must be a parameter of the original.

Members of objects (``pop.members``, ``evaluator.evaluate``,
``summary.ert_rows``) cannot be resolved from the text, so a hand-kept list
names them, and each is checked with ``hasattr`` on an instance; every
listed member must still be used by name somewhere in ``perfbench/``. It
does not cover calls made through another name (``build =
originals["make_test_function"]``), or the count of positional arguments.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The file's names bound to ``sqgde`` modules, and to names imported from them, each with its (module, name)."""
    modules, imported = {"harness": "sqgde.harness"}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sqgde":
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
                if node.module == "sqgde":  # a submodule, whose attributes are checked below
                    modules[alias.asname or alias.name] = f"sqgde.{alias.name}"
        elif isinstance(node, ast.Import):
            modules.update((a.asname or a.name, a.name) for a in node.names if a.name.split(".")[0] == "sqgde")
    return modules, imported


def _rebound(tree: ast.Module) -> tuple[set[str], list[ast.FunctionDef]]:
    """The names ``traced_harness`` rebinds on ``harness``, and the wrappers it defines under them."""
    names, wrappers = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "traced_harness":
            for assign in ast.walk(node):
                if isinstance(assign, ast.Assign) and [getattr(t, "id", None) for t in assign.targets] == ["names"]:
                    names.update(elt.value for elt in assign.value.elts)
            wrappers += [f for f in ast.walk(node) if isinstance(f, ast.FunctionDef) and f is not node]
    return names, [f for f in wrappers if f.name in names]


def _used_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each ``sqgde`` name a perfbench file uses."""
    modules, imported = _bindings(tree)
    used = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            used.add((modules[node.value.id], node.attr))
    used.update(("sqgde.harness", name) for name in _rebound(tree)[0])
    return used


def _keywords(tree: ast.Module) -> set[tuple[str, str, str]]:
    """(module, name, keyword) of each keyword a perfbench file passes to a ``sqgde`` name it calls."""
    modules, imported = _bindings(tree)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            target = imported[func.id]
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
            target = (modules[func.value.id], func.attr)
        else:
            continue
        found.update((*target, k.arg) for k in node.keywords if k.arg is not None)  # not a ** spread
    return found


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(module), name, None)


def _exists(module: str, name: str) -> bool:
    if module == "sqgde" and importlib.util.find_spec(f"sqgde.{name}") is not None:  # a submodule
        return True
    return hasattr(importlib.import_module(module), name)


def _takes(fn, parameter: str) -> bool:
    """Whether ``fn`` accepts ``parameter`` as a keyword."""
    params = inspect.signature(fn).parameters
    kinds = {p.kind for p in params.values()}
    return inspect.Parameter.VAR_KEYWORD in kinds or (
        parameter in params and params[parameter].kind is not inspect.Parameter.POSITIONAL_ONLY
    )


def _trees() -> list[ast.Module]:
    return [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]


def test_every_sqgde_name_perfbench_uses_exists():
    used = set().union(*map(_used_names, _trees()))
    # The walk finds each kind of use: an import, a module attribute, a parameter's and a rebound name.
    assert {
        ("sqgde.core", "init_population"),
        ("sqgde.algos", "mutate_rand1"),
        ("sqgde.harness", "run_benchmark"),
        ("sqgde.harness", "bnfv_on_grid"),
    } <= used
    missing = [f"{module}.{name}" for module, name in sorted(used) if not _exists(module, name)]
    assert not missing, f"perfbench/ uses names that sqgde no longer has: {', '.join(missing)}"


def test_every_keyword_perfbench_passes_is_a_parameter():
    passed = set().union(*map(_keywords, _trees()))
    # An imported name's call, a module attribute's call and a class's construction.
    assert {
        ("sqgde.testfuncs", "make_test_function", "dim"),
        ("sqgde.harness", "run_benchmark", "workers"),
        ("sqgde.harness", "BenchmarkSpec", "algorithms"),
        ("sqgde.harness", "BenchmarkSpec", "output_dir"),
    } <= passed
    wrong = [
        f"{module}.{name}({keyword}=)"
        for module, name, keyword in sorted(passed)
        if callable(fn := _resolve(module, name)) and not _takes(fn, keyword)
    ]
    assert not wrong, f"perfbench/ passes keywords that sqgde no longer takes: {', '.join(wrong)}"


def test_every_wrapper_traced_harness_rebinds_takes_the_originals_parameters():
    from sqgde import harness

    wrappers = [w for tree in _trees() for w in _rebound(tree)[1]]
    assert "make_test_function" in {w.name for w in wrappers}
    wrong = [
        f"{w.name}({arg.arg})"
        for w in wrappers
        for arg in (*w.args.posonlyargs, *w.args.args, *w.args.kwonlyargs)
        if arg.arg not in inspect.signature(getattr(harness, w.name)).parameters
    ]
    assert not wrong, f"traced_harness wraps with parameters the originals no longer have: {', '.join(wrong)}"


# The members of sqgde objects that perfbench/ reads, sets or calls, by type.
PERFBENCH_MEMBERS = {
    "Population": ("members", "size"),
    "_Member": ("fitness", "genome"),
    "BudgetedEvaluator": ("evaluate",),
    "SummaryResult": ("ert_rows",),
    "SearchSpace": ("dim", "mean_range", "sample_uniform"),
    "TestFunction": ("label", "space"),
    "AlgorithmSpec": ("config", "name"),
    "DEConfig": ("CR", "F", "pop_size", "w"),
    "SQGConfig": ("delta", "r", "warm_start_samples"),
    "BenchmarkSpec": ("algorithms", "budget", "dims", "functions", "output_dir", "reps"),
    "FunctionDescriptor": ("label",),
}


def _instances() -> dict:
    """One instance of each type of ``PERFBENCH_MEMBERS``."""
    from sqgde.core import BudgetedEvaluator, Population
    from sqgde.harness import ALGORITHM_PRESETS, SummaryResult, default_benchmark_spec
    from sqgde.testfuncs import make_test_function, suite_by_label

    pop, desc = Population(np.zeros((2, 2))), suite_by_label()["shifted_sphere"]
    fn = make_test_function(desc, dim=2)
    objects = [pop, pop.members[0], BudgetedEvaluator(fn, 1), SummaryResult([], []), fn.space, fn]
    objects += [ALGORITHM_PRESETS["sqgde"], ALGORITHM_PRESETS["sqgde"].config, ALGORITHM_PRESETS["sqg"].config]
    objects += [default_benchmark_spec(), desc]
    return {type(obj).__name__: obj for obj in objects}


def test_every_object_member_perfbench_uses_exists():
    instances = _instances()
    assert sorted(instances) == sorted(PERFBENCH_MEMBERS)
    missing = [f"{t}.{m}" for t, members in PERFBENCH_MEMBERS.items() for m in members if not hasattr(instances[t], m)]
    assert not missing, f"perfbench/ uses members that sqgde objects no longer have: {', '.join(missing)}"
    # The list stays current: each member is still used by name in perfbench/.
    used = {node.attr for tree in _trees() for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    stale = [f"{t}.{m}" for t, members in PERFBENCH_MEMBERS.items() for m in members if m not in used]
    assert not stale, f"perfbench/ no longer uses these listed members; drop them from the list: {', '.join(stale)}"
