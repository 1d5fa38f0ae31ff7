import importlib
import pkgutil

import pytest

import sqgde

MODULES = sorted(m.name for m in pkgutil.iter_modules(sqgde.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_public_names_resolve(name):
    module = importlib.import_module(f"sqgde.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from sqgde.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_package_modules_are_covered():
    assert {"algos", "core", "harness", "metrics", "stats", "testfuncs"} <= set(MODULES)
