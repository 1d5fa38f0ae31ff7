"""Golden traces: the "same behaviour" oracle for refactors.

The four protocol presets on five suite functions at D = 10, budget 300,
two seeds each, must reproduce the stored improvement traces bit for bit.
The functions cover a plain shift, a rotation, a shift drawn on the bounds,
and hybrids of plain, noisy and expanded bases.
Beside them the file holds random-search targets at D = 100 whose values
follow how ``estimate_rse_target`` splits a sample into row blocks: at
these budgets a rotated product's last bits depend on the block's row
count, so a change of ``metrics._RSE_BLOCK`` or of the split moves them.

The ``protocol`` section is a one-rep slice of the protocol itself: rep 0
of every (preset, function, dim) of ``default_benchmark_spec()`` at
D = 30 and 50, budget 1000, seeded as ``run_benchmark`` seeds it, stored as
its final point and the sha256 of the trace file ``write_trace`` writes,
plus each cell's random-search target at reps 2. There DE runs 9
generations and sqg 150 iterations, where the D = 10 traces reach 2 and 33.

The ``summarize`` section pins the tables ``summarize`` writes (``bnfv.csv``,
``ert.csv`` and ``summary.csv``) by their sha256, for one small spec whose
functions span several categories and include a box so wide that every
value overflows: its target is inf, so its ERTs are lower bounds and its
``bnfv.csv`` rows are raw.

The file records the stream version it was generated under. A change
that alters any result for a seed (a draw order, the numerics of an
objective, or the RSE block split) must bump ``core.STREAM_VERSION`` and
regenerate:

    PYTHONPATH=src python tests/test_golden.py

Regenerating under the version the file already records only adds missing
entries; it refuses to overwrite a stored trace or target that no longer
matches, so a change of behaviour cannot be hidden without a version bump.
"""

import hashlib
import json
import tempfile
from functools import cache
from pathlib import Path

import pytest

from sqgde.core import STREAM_VERSION
from sqgde.harness import ALGORITHM_PRESETS, BenchmarkSpec, default_benchmark_spec, execute_run, rse_target, run_seed
from sqgde.harness import run_benchmark, summarize, write_trace
from sqgde.metrics import estimate_rse_target
from sqgde.testfuncs import FunctionDescriptor, make_test_function, suite_by_label

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
# The RSE targets: at D = 100 these budgets give blocks of 65-100 rows, where
# the last bits of a rotated product follow the row count.
RSE_FUNCTIONS = (
    "shifted_rotated_elliptic",
    "shifted_rotated_griewank",
    "shifted_rotated_weierstrass",
    "hybrid_rotated_mixed",
)
RSE_BUDGETS = (130, 250, 300, 500)
RSE_DIM, RSE_REPS, RSE_SEED = 100, 3, 1


def _key(algo: str, label: str, seed: int) -> str:
    return f"{algo}/{label}/d{DIM}/s{seed}"


def _trace(algo: str, label: str, seed: int) -> dict:
    fn = make_test_function(suite_by_label()[label], dim=DIM)
    trace = execute_run(ALGORITHM_PRESETS[algo], fn, BUDGET, seed)
    return {"final_evals": trace.final_evals, "points": [list(p) for p in trace.points]}


def _cases():
    return [(a, f, s) for a in ALGORITHMS for f in FUNCTIONS for s in SEEDS]


def _rse_key(label: str, budget: int) -> str:
    return f"{label}/d{RSE_DIM}/b{budget}/r{RSE_REPS}/s{RSE_SEED}"


def _rse_target(label: str, budget: int) -> float:
    fn = make_test_function(suite_by_label()[label], dim=RSE_DIM)
    return estimate_rse_target(fn, budget, RSE_REPS, RSE_SEED).value


def _rse_cases():
    return [(f, b) for f in RSE_FUNCTIONS for b in RSE_BUDGETS]


PROTOCOL = default_benchmark_spec()
# The protocol slice's random-search targets are its cells' "rse" entries.
PROTOCOL_TARGET, PROTOCOL_TARGET_REPS = "rse", 2


@cache
def _protocol_function(label: str, dim: int):
    return make_test_function(suite_by_label()[label], dim=dim)


def _protocol_key(algo: str, label: str, dim: int) -> str:
    return f"{algo}/{label}/d{dim}"


def _protocol_entry(algo: str, label: str, dim: int):
    """A protocol run's final point and trace-file sha256, or, under ``rse``, its cell's target."""
    fn, budget, seed = _protocol_function(label, dim), PROTOCOL.budget, PROTOCOL.master_seed
    if algo == PROTOCOL_TARGET:
        return rse_target(fn, budget, PROTOCOL_TARGET_REPS, seed).value
    trace = execute_run(ALGORITHM_PRESETS[algo], fn, budget, run_seed(seed, algo, label, dim, 0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        write_trace(path, trace)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"final": [trace.final_evals, trace.final_best], "sha256": digest}


def _protocol_cases():
    algos = [a.name for a in PROTOCOL.algorithms] + [PROTOCOL_TARGET]
    return [(a, f.label, d) for a in algos for f in PROTOCOL.functions for d in PROTOCOL.dims]


# The summarize pin: two categories of two suite functions each, and one
# uncategorized function whose every value overflows to inf.
SUMMARY_TABLES = ("bnfv.csv", "ert.csv", "summary.csv")
SUMMARY_FUNCTIONS = ("shifted_sphere", "shifted_schwefel12_noisy", "shifted_rastrigin", "shifted_rotated_weierstrass")
SUMMARY_WIDE = FunctionDescriptor("wide", kind="sphere", bounds=(-1e200, 1e200), seed=3)


def _summary_cases():
    return [((2, 10), 300, 3, 7)]  # (dims, budget, reps, master seed)


def _summary_key(dims, budget: int, reps: int, seed: int) -> str:
    return f"d{'-'.join(map(str, dims))}/b{budget}/r{reps}/s{seed}"


def _summary_tables(dims, budget: int, reps: int, seed: int) -> dict:
    """The sha256 of each table ``summarize`` writes for the spec."""
    functions = [suite_by_label()[label] for label in SUMMARY_FUNCTIONS] + [SUMMARY_WIDE]
    with tempfile.TemporaryDirectory() as tmp:
        run_benchmark(BenchmarkSpec(list(ALGORITHM_PRESETS.values()), functions, list(dims), budget, reps, seed, tmp))
        summarize(tmp)
        return {name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest() for name in SUMMARY_TABLES}


# Each section of the file: its cases, a case's key and a case's stored value.
SECTIONS = {
    "traces": (_cases, _key, _trace),
    "rse_targets": (_rse_cases, _rse_key, _rse_target),
    "protocol": (_protocol_cases, _protocol_key, _protocol_entry),
    "summarize": (_summary_cases, _summary_key, _summary_tables),
}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_matches_stream_version(golden):
    assert golden["stream_version"] == STREAM_VERSION
    for section, (cases, key, _) in SECTIONS.items():
        assert sorted(golden[section]) == sorted(key(*case) for case in cases())


@pytest.mark.parametrize("algo,label,seed", _cases())
def test_golden_trace_bit_identical(golden, algo, label, seed):
    # json keeps floats as their shortest repr, which round-trips exactly
    assert _trace(algo, label, seed) == golden["traces"][_key(algo, label, seed)]


@pytest.mark.parametrize("label,budget", _rse_cases())
def test_golden_rse_target_bit_identical(golden, label, budget):
    assert _rse_target(label, budget) == golden["rse_targets"][_rse_key(label, budget)]


@pytest.mark.parametrize("algo,label,dim", _protocol_cases())
def test_golden_protocol_slice_bit_identical(golden, algo, label, dim):
    assert _protocol_entry(algo, label, dim) == golden["protocol"][_protocol_key(algo, label, dim)]


@pytest.mark.parametrize("case", _summary_cases(), ids=lambda case: _summary_key(*case))
def test_golden_summarize_tables_bit_identical(golden, case):
    assert _summary_tables(*case) == golden["summarize"][_summary_key(*case)]


def regenerate(path: Path = GOLDEN, cases: dict | None = None) -> list[str]:
    """Write the entries of ``cases`` ({section: its cases}; every case of
    every section by default) to ``path``; return the keys whose stored
    value changed.

    Under the stream version the file already records, stored entries are
    kept and must still match: a mismatch raises ``ValueError`` and leaves
    the file as it was. Under a new version every entry is rewritten.
    """
    old = json.loads(path.read_text()) if path.exists() else {"stream_version": None}
    same_version = old["stream_version"] == STREAM_VERSION
    payload, changed = {"stream_version": STREAM_VERSION, "dim": DIM, "budget": BUDGET}, []
    for section, (all_cases, key_of, value_of) in SECTIONS.items():
        stored = old.get(section, {})
        entries = dict(stored) if same_version else {}
        for case in all_cases() if cases is None else cases.get(section, []):
            key, value = key_of(*case), value_of(*case)
            if key in stored and stored[key] != value:
                changed.append(key)
            entries[key] = value
        payload[section] = entries
    if same_version and changed:
        raise ValueError(
            f"{path} records stream version {STREAM_VERSION}, but these entries changed: "
            f"{', '.join(changed)}. Bump core.STREAM_VERSION to regenerate them."
        )
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return changed


def test_regenerate_refuses_changed_trace_of_same_version(tmp_path):
    case, rse_case = ("sqg", "shifted_sphere", 1), ("shifted_rotated_elliptic", 130)
    trace = _trace(*case)
    tampered = {"final_evals": trace["final_evals"], "points": trace["points"][:-1] + [[300, 0.5]]}
    path = tmp_path / "golden.json"
    for section, stored in (("traces", {_key(*case): tampered}), ("rse_targets", {_rse_key(*rse_case): 0.5})):
        text = json.dumps({"stream_version": STREAM_VERSION, section: stored})
        path.write_text(text)
        with pytest.raises(ValueError, match="Bump core.STREAM_VERSION"):
            regenerate(path, {"traces": [case], "rse_targets": [rse_case]})
        assert path.read_text() == text


def test_regenerate_adds_new_traces_and_rewrites_old_versions(tmp_path):
    first, second = ("sqg", "shifted_sphere", 1), ("sqg", "shifted_sphere", 2)
    path = tmp_path / "golden.json"
    assert regenerate(path, {"traces": [first]}) == []
    assert regenerate(path, {"traces": [first, second]}) == []
    assert sorted(json.loads(path.read_text())["traces"]) == sorted([_key(*first), _key(*second)])
    stale = {"stream_version": STREAM_VERSION - 1, "traces": {_key(*first): {"final_evals": 1, "points": []}}}
    path.write_text(json.dumps(stale))
    assert regenerate(path, {"traces": [first]}) == [_key(*first)]
    assert json.loads(path.read_text())["stream_version"] == STREAM_VERSION


if __name__ == "__main__":
    changed = regenerate()
    counts = (
        f"{len(_cases())} traces, {len(_rse_cases())} RSE targets, {len(_protocol_cases())} protocol entries"
        f" and {len(_summary_cases())} summarize pins"
    )
    print(f"wrote {counts} to {GOLDEN}; changed: {', '.join(changed) or 'none'}")
