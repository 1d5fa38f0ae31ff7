"""Golden traces: the "same behaviour" oracle for refactors.

The four protocol presets on five suite functions at D = 10, budget 300,
two seeds each, must reproduce the stored improvement traces bit for bit.
The functions cover a plain shift, a rotation, a shift drawn on the bounds,
and hybrids of plain, noisy and expanded bases.
The file records the stream version it was generated under. A change
that alters any result for a seed (a draw order, or the numerics of an
objective) must bump ``core.STREAM_VERSION`` and regenerate:

    PYTHONPATH=src python tests/test_golden.py

Regenerating under the version the file already records only adds missing
traces; it refuses to overwrite a stored trace that no longer matches, so a
change of behaviour cannot be hidden without a version bump.
"""

import json
from pathlib import Path

import pytest

from sqgde.core import STREAM_VERSION
from sqgde.harness import ALGORITHM_PRESETS, execute_run
from sqgde.testfuncs import make_test_function, suite_by_label

GOLDEN = Path(__file__).with_name("golden_traces.json")
ALGORITHMS = ("de", "de2", "sqg", "sqgde")
FUNCTIONS = (
    "shifted_sphere",
    "shifted_rotated_rastrigin",
    "hybrid_rotated_noisy",
    "shifted_rotated_ackley_bounds",
    "hybrid_rotated_mixed",
)
SEEDS = (1, 2)
DIM = 10
BUDGET = 300


def _key(algo: str, label: str, seed: int) -> str:
    return f"{algo}/{label}/d{DIM}/s{seed}"


def _trace(algo: str, label: str, seed: int) -> dict:
    fn = make_test_function(suite_by_label()[label], dim=DIM)
    trace = execute_run(ALGORITHM_PRESETS[algo], fn, BUDGET, seed)
    return {"final_evals": trace.final_evals, "points": [list(p) for p in trace.points]}


def _cases():
    return [(a, f, s) for a in ALGORITHMS for f in FUNCTIONS for s in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_matches_stream_version(golden):
    assert golden["stream_version"] == STREAM_VERSION
    assert sorted(golden["traces"]) == sorted(_key(*case) for case in _cases())


@pytest.mark.parametrize("algo,label,seed", _cases())
def test_golden_trace_bit_identical(golden, algo, label, seed):
    # json keeps floats as their shortest repr, which round-trips exactly
    assert _trace(algo, label, seed) == golden["traces"][_key(algo, label, seed)]


def regenerate(path: Path = GOLDEN, cases=None) -> list[str]:
    """Write the traces of ``cases`` (all by default) to ``path``; return the
    keys whose stored trace changed.

    Under the stream version the file already records, stored traces are
    kept and must still match: a mismatch raises ``ValueError`` and leaves
    the file as it was. Under a new version every trace is rewritten.
    """
    old = json.loads(path.read_text()) if path.exists() else {"stream_version": None, "traces": {}}
    same_version = old["stream_version"] == STREAM_VERSION
    traces = dict(old["traces"]) if same_version else {}
    changed = []
    for case in cases if cases is not None else _cases():
        key = _key(*case)
        trace = _trace(*case)
        if key in old["traces"] and old["traces"][key] != trace:
            changed.append(key)
        traces[key] = trace
    if same_version and changed:
        raise ValueError(
            f"{path} records stream version {STREAM_VERSION}, but these traces changed: "
            f"{', '.join(changed)}. Bump core.STREAM_VERSION to regenerate them."
        )
    payload = {"stream_version": STREAM_VERSION, "dim": DIM, "budget": BUDGET, "traces": traces}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return changed


def test_regenerate_refuses_changed_trace_of_same_version(tmp_path):
    case = ("sqg", "shifted_sphere", 1)
    trace = _trace(*case)
    tampered = {"final_evals": trace["final_evals"], "points": trace["points"][:-1] + [[300, 0.5]]}
    path = tmp_path / "golden.json"
    text = json.dumps({"stream_version": STREAM_VERSION, "traces": {_key(*case): tampered}})
    path.write_text(text)
    with pytest.raises(ValueError, match="Bump core.STREAM_VERSION"):
        regenerate(path, [case])
    assert path.read_text() == text


def test_regenerate_adds_new_traces_and_rewrites_old_versions(tmp_path):
    first, second = ("sqg", "shifted_sphere", 1), ("sqg", "shifted_sphere", 2)
    path = tmp_path / "golden.json"
    assert regenerate(path, [first]) == []
    assert regenerate(path, [first, second]) == []
    assert sorted(json.loads(path.read_text())["traces"]) == sorted([_key(*first), _key(*second)])
    stale = {"stream_version": STREAM_VERSION - 1, "traces": {_key(*first): {"final_evals": 1, "points": []}}}
    path.write_text(json.dumps(stale))
    assert regenerate(path, [first]) == [_key(*first)]
    assert json.loads(path.read_text())["stream_version"] == STREAM_VERSION


if __name__ == "__main__":
    changed = regenerate()
    print(f"wrote {len(_cases())} traces to {GOLDEN}; changed: {', '.join(changed) or 'none'}")
