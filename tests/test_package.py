import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_a_failing_hypothesis_test_is_reported_as_a_failure(tmp_path):
    # Reporting a failing @given test imports code that warns; under the
    # suite's warning filters that must not stop pytest with INTERNALERROR.
    (tmp_path / "test_probe.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(n):\n    assert n < 5\n\n\n"
        "def test_passes():\n    pass\n"
    )
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    res = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in res.stdout + res.stderr
    assert res.returncode == 1
    assert "1 failed, 1 passed" in res.stdout
