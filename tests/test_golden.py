"""Golden traces: the "same behaviour" oracle for refactors.

The four protocol presets on three suite functions at D = 10, budget 300,
two seeds each, must reproduce the stored improvement traces bit for bit.
The file records the RNG stream version it was generated under; a change
that alters any draw order must bump ``core.STREAM_VERSION`` and regenerate:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from sqgde.core import STREAM_VERSION
from sqgde.harness import ALGORITHM_PRESETS, execute_run
from sqgde.testfuncs import make_test_function, suite_by_label

GOLDEN = Path(__file__).with_name("golden_traces.json")
ALGORITHMS = ("de", "de2", "sqg", "sqgde")
FUNCTIONS = ("shifted_sphere", "shifted_rotated_rastrigin", "hybrid_rotated_noisy")
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


if __name__ == "__main__":
    traces = {_key(*case): _trace(*case) for case in _cases()}
    payload = {"stream_version": STREAM_VERSION, "dim": DIM, "budget": BUDGET, "traces": traces}
    GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(traces)} traces to {GOLDEN}")
