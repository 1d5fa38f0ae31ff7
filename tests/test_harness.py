import concurrent.futures
import csv
import fcntl
import json
import logging
import multiprocessing
import os
import re
import shutil
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgde import harness
from sqgde.algos import DEConfig, SQGConfig, run_de, run_sqg
from sqgde.core import STREAM_VERSION, RunTrace, SearchSpace
from sqgde.harness import (
    ALGORITHM_PRESETS,
    RSE_COLUMNS,
    RUNS_COLUMNS,
    AlgorithmSpec,
    BenchmarkSpec,
    _read_trace,
    algorithm_preset,
    build_summary_rows,
    default_benchmark_spec,
    ensure_rse_targets,
    execute_run,
    run_benchmark,
    run_seed,
    summarize,
    write_trace,
)
from sqgde.metrics import ErtResult, RseTarget, best_on_grid
from sqgde.testfuncs import ComponentDescriptor, FunctionDescriptor, custom_function, make_test_function


def small_spec(out, reps=5, seed=7):
    return BenchmarkSpec(
        algorithms=[
            AlgorithmSpec("de_small", DEConfig("rand1exp", pop_size=10)),
            AlgorithmSpec("sqg_small", SQGConfig(r=2, warm_start_samples=10)),
        ],
        functions=[FunctionDescriptor(label="sphere2", kind="sphere", seed=3)],
        dims=[2],
        budget=60,
        reps=reps,
        master_seed=seed,
        output_dir=str(out),
    )


# --- specs and presets -------------------------------------------------------


def test_presets_cover_protocol():
    assert set(ALGORITHM_PRESETS) == {"de", "de2", "sqg", "sqgde"}
    sqgde = algorithm_preset("sqgde").config
    assert (sqgde.strategy, sqgde.F, sqgde.CR, sqgde.w, sqgde.pop_size) == ("sqgbin", 0.8, 0.8, 5, 100)
    de = algorithm_preset("de").config
    assert (de.strategy, de.pop_size) == ("rand1exp", 100)
    assert algorithm_preset("de2").config.strategy == "best2bin"
    assert isinstance(algorithm_preset("sqg").config, SQGConfig)
    with pytest.raises(ValueError):
        algorithm_preset("nope")


def test_algorithm_spec_roundtrip():
    for name in ALGORITHM_PRESETS:
        spec = algorithm_preset(name)
        assert AlgorithmSpec.from_dict(spec.to_dict()) == spec


def test_algorithm_spec_from_name_with_overrides():
    spec = AlgorithmSpec.from_dict({"name": "sqgde", "w": 3})
    assert spec.config.w == 3
    assert spec.config.strategy == "sqgbin"
    with pytest.raises(ValueError):
        AlgorithmSpec.from_dict({"name": "mystery"})
    with pytest.raises(ValueError):
        AlgorithmSpec.from_dict({"name": "x", "kind": "genetic"})


def test_small_population_sqg_strategy_rejected():
    with pytest.raises(ValueError):
        AlgorithmSpec.from_dict(
            {"name": "tiny", "kind": "de", "strategy": "sqgbin", "w": 5, "pop_size": 6}
        )


def test_benchmark_spec_json_roundtrip(tmp_path):
    spec = small_spec(tmp_path / "r")
    again = BenchmarkSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec


def test_benchmark_spec_defaults_fill_in():
    spec = BenchmarkSpec.from_dict({})
    assert [a.name for a in spec.algorithms] == ["de", "de2", "sqg", "sqgde"]
    assert len(spec.functions) == 17
    assert spec.dims == [30, 50]
    assert (spec.budget, spec.reps) == (1000, 100)


def test_benchmark_spec_refuses_unknown_keys_but_the_stream_version():
    with pytest.raises(ValueError, match=r"unknown keys \['budgett'\]"):
        BenchmarkSpec.from_dict({"budgett": 50})
    assert BenchmarkSpec.from_dict({"budget": 50, "stream_version": STREAM_VERSION}).budget == 50


@pytest.mark.parametrize(
    "record, message",
    [
        ({"budget": 50.9}, "benchmark spec: budget must be a JSON int, got 50.9"),
        ({"reps": 1.5}, "benchmark spec: reps must be a JSON int, got 1.5"),
        ({"master_seed": "5"}, "benchmark spec: master_seed must be a JSON int, got '5'"),
        ({"dims": [10, True]}, "benchmark spec: each of dims must be a JSON int, got True"),
        ({"output_dir": 3}, "benchmark spec: output_dir must be a JSON str, got 3"),
        (
            {"algorithms": [{"name": "x", "kind": "de", "strategy": "rand1exp", "pop_size": 10.5}]},
            "algorithm 'x': pop_size must be a JSON int, got 10.5",
        ),
        ({"algorithms": [{"name": "de", "F": True}]}, "algorithm 'de': F must be a JSON float, got True"),
        ({"algorithms": [{"name": "sqg", "r": 2.0}]}, "algorithm 'sqg': r must be a JSON int, got 2.0"),
        ({"algorithms": [{"name": "x", "kind": "de", "strategy": 1}]}, "algorithm 'x': strategy must be a JSON str"),
        ({"functions": [{"label": "f", "kind": "sphere", "seed": 3.9}]}, "function 'f': seed must be a JSON int"),
        # an empty or null list is what was written, not a missing entry
        ({"functions": []}, "at least one function is required"),
        ({"functions": None}, "benchmark spec: functions must be a JSON list, got None"),
        ({"algorithms": None}, "benchmark spec: algorithms must be a JSON list, got None"),
        ({"dims": None}, "benchmark spec: dims must be a JSON list, got None"),
        # each entry is a record (an algorithm may also be a preset name)
        ({"functions": [5]}, "function must be a JSON object, got 5"),
        ({"algorithms": [5]}, "algorithm must be a JSON object, got 5"),
        ({"algorithms": [{"name": "x", "kind": "de"}]}, "algorithm 'x' needs strategy"),
        ({"algorithms": [{"name": "de", "F": 10**400}]}, "algorithm 'de': F is out of the range of a float"),
    ],
    ids=["budget", "reps", "master_seed", "dims", "output_dir", "pop_size", "F", "r", "strategy", "function",
         "empty_functions", "null_functions", "null_algorithms", "null_dims", "function_entry", "algorithm_entry",
         "kind_without_strategy", "float_overflow"],
)
def test_benchmark_spec_refuses_values_of_another_json_type(record, message):
    # int(50.9) would run budget 50 and record it as what was asked
    with pytest.raises(ValueError, match=re.escape(message)):
        BenchmarkSpec.from_dict(record)


# The key names and some values of the real records, so that documents reach
# past the first refusal of each reader.
_RECORDS = (AlgorithmSpec, BenchmarkSpec, FunctionDescriptor, ComponentDescriptor)
_KEYS = sorted(
    {f.name for cls in (*_RECORDS, DEConfig, SQGConfig) for f in dataclass_fields(cls)} | {"lambda", "stream_version"}
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["de", "sqg", "sqgde", "rand1exp", "sphere", "ackley", "f", "unimodal"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=6),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_JSON, st.sampled_from(_RECORDS))
def test_a_json_document_is_read_as_a_record_or_refused_with_value_error(document, reader):
    # one error for a bad record: a caller catches ValueError and nothing else
    try:
        assert isinstance(reader.from_dict(document), reader)
    except ValueError:
        pass


def test_algorithm_spec_refuses_unknown_parameters():
    with pytest.raises(ValueError, match=r"algorithm 'de' has unknown keys \['G'\]"):
        AlgorithmSpec.from_dict({"name": "de", "G": 0.5})


def test_algorithm_spec_takes_integers_for_float_parameters():
    config = AlgorithmSpec.from_dict({"name": "x", "kind": "de", "strategy": "rand1exp", "F": 1, "CR": 0}).config
    assert (config.F, config.CR) == (1.0, 0.0) and type(config.F) is float


def test_benchmark_spec_validation():
    fns = [FunctionDescriptor(label="f", kind="sphere", seed=1)]
    with pytest.raises(ValueError):
        BenchmarkSpec(algorithms=[], functions=fns, dims=[2])
    with pytest.raises(ValueError):
        BenchmarkSpec(
            algorithms=[algorithm_preset("de"), algorithm_preset("de")], functions=fns, dims=[2]
        )
    with pytest.raises(ValueError):
        BenchmarkSpec(algorithms=[algorithm_preset("de")], functions=fns, dims=[0])
    with pytest.raises(ValueError):
        BenchmarkSpec(algorithms=[algorithm_preset("de")], functions=fns, dims=[2], reps=0)
    with pytest.raises(ValueError, match="at least one function is required"):
        BenchmarkSpec(algorithms=[algorithm_preset("de")], functions=[], dims=[2])
    with pytest.raises(ValueError, match="budget must be at least 1"):
        BenchmarkSpec(algorithms=[algorithm_preset("de")], functions=fns, dims=[2], budget=0)
    with pytest.raises(ValueError, match="function labels must be unique"):
        BenchmarkSpec(algorithms=[algorithm_preset("de")], functions=fns * 2, dims=[2])
    with pytest.raises(ValueError, match="dims must be unique"):  # each run of the dim would run twice
        BenchmarkSpec(algorithms=[algorithm_preset("de")], functions=fns, dims=[2, 3, 2])


@pytest.mark.parametrize(
    "what, algorithm, label",
    [
        ("function label", "de", "a,b"),  # an unquoted comma splits the runs.csv row
        ("function label", "de", "../../escaped"),  # a trace path outside the directory
        ("function label", "de", 5),  # not a string: resumes would never match its rows
        ("function label", "de", "f__g"),  # "__" separates the parts of a trace file name
        ("algorithm name", "de__x", "f"),
    ],
    ids=["comma", "path", "number", "label_double_underscore", "name_double_underscore"],
)
def test_benchmark_spec_refuses_names_the_result_files_cannot_hold(tmp_path, what, algorithm, label):
    record = {
        "algorithms": [{"name": algorithm, "kind": "de", "strategy": "rand1exp", "pop_size": 10}],
        "functions": [{"label": label, "kind": "sphere", "seed": 3}],
        "dims": [2],
        "budget": 60,
        "reps": 2,
        "output_dir": str(tmp_path / "out"),
    }
    bad = label if what == "function label" else algorithm
    with pytest.raises(ValueError, match=re.escape(f"{what} {bad!r} must be letters and digits")):
        run_benchmark(BenchmarkSpec.from_dict(record))
    with pytest.raises(ValueError, match=re.escape(f"{what} {bad!r}")):
        ensure_rse_targets(BenchmarkSpec.from_dict(record))
    assert not (tmp_path / "out").exists()
    # letters and digits joined by single separators are accepted
    record["algorithms"][0]["name"], record["functions"][0]["label"] = "de-1.b", "sphere_2.x-y"
    assert [r.key for r in run_benchmark(BenchmarkSpec.from_dict(record))][0] == ("de-1.b", "sphere_2.x-y", 2, 0)


@pytest.mark.parametrize(
    "category, message",
    [
        ("easy,hard", "must be letters and digits"),  # an unquoted comma splits the summary.csv row
        ("overall", "is reserved"),  # summary.csv's group of all functions would appear twice per dim
    ],
    ids=["comma", "overall"],
)
def test_benchmark_spec_refuses_categories_the_summary_cannot_hold(tmp_path, category, message):
    functions = [
        {"label": "f", "kind": "sphere", "seed": 3, "category": category},
        {"label": "g", "kind": "sphere", "seed": 4, "category": "x"},
    ]
    record = {"algorithms": ["de", "de2"], "functions": functions, "dims": [3], "budget": 200, "reps": 2}
    record["output_dir"] = str(tmp_path / "out")
    with pytest.raises(ValueError, match=re.escape(f"function category {category!r} {message}")):
        BenchmarkSpec.from_dict(record)
    assert not (tmp_path / "out").exists()
    # categories repeat: one category may hold every function
    functions[0]["category"] = functions[1]["category"] = "easy"
    assert [f.category for f in BenchmarkSpec.from_dict(record).functions] == ["easy", "easy"]


def test_default_benchmark_spec_shape():
    spec = default_benchmark_spec()
    assert len(spec.algorithms) == 4
    assert len(spec.functions) == 17
    assert spec.dims == [30, 50]
    assert (spec.budget, spec.reps, spec.master_seed, spec.output_dir) == (1000, 100, 12345, "results")


def test_run_seed_is_stable_and_spread():
    assert run_seed(1, "de", "f", 30, 0) == run_seed(1, "de", "f", 30, 0)
    seeds = {
        run_seed(1, a, f, d, r)
        for a in ("de", "sqg")
        for f in ("f", "g")
        for d in (2, 3)
        for r in range(5)
    }
    assert len(seeds) == 40


def test_execute_run_dispatch():
    fn = make_test_function(FunctionDescriptor(label="f", kind="sphere", seed=1), dim=2)
    assert execute_run(algorithm_preset("de"), fn, 120, 0).final_evals == 120
    assert execute_run(algorithm_preset("sqg"), fn, 120, 0).final_evals == 120
    with pytest.raises(TypeError):
        execute_run(AlgorithmSpec("bad", object()), fn, 10, 0)


def test_to_dict_refuses_a_config_of_no_known_kind():
    @dataclass
    class OtherConfig:
        steps: int = 1

    with pytest.raises(TypeError, match="unsupported algorithm config OtherConfig"):
        AlgorithmSpec("other", OtherConfig()).to_dict()


# --- trace and target persistence ------------------------------------------


def test_trace_roundtrip(tmp_path):
    trace = RunTrace(((1, 5.0), (7, 1.25), (30, 0.1)), 30)
    path = tmp_path / "t.csv"
    write_trace(path, trace)
    again = _read_trace(path)
    assert again.points == trace.points
    assert again.final_evals == 30
    assert path.read_text().splitlines()[0] == "eval,best"
    # Seeded random doubles of every exponent, subnormals among them, and the
    # values where repr's format changes come back bit for bit.
    drawn = np.random.default_rng(28).integers(0, 2**64, 4000, dtype=np.uint64).view(float)
    big, tiny = np.finfo(float).max, np.finfo(float).tiny
    edges = [np.inf, big, 1e16, 9999999999999998.0, 1e-4, 1e-5, tiny, tiny - 5e-324, tiny / 3, 5e-324, 0.0, -0.0]
    values = np.concatenate([drawn[~np.isnan(drawn)], edges, np.negative(edges)])
    bests = np.array(sorted(values.tolist(), reverse=True))  # a best-so-far never rises
    trace = RunTrace(tuple(zip(range(1, len(bests) + 1), bests.tolist())), len(bests))
    write_trace(path, trace)
    again = _read_trace(path)
    assert [e for e, _ in again.points] == list(range(1, len(bests) + 1))
    assert np.array([b for _, b in again.points]).view(np.uint64).tolist() == bests.view(np.uint64).tolist()
    assert again.final_evals == len(bests)


def test_a_run_without_a_finite_value_ends_on_its_budget_and_round_trips(tmp_path):
    # With 10 warm-start samples run_sqg takes quasi-gradient steps, where inf - inf probe differences arise.
    for value in (np.nan, np.inf):
        fn = custom_function("wall", SearchSpace.box(3, -1.0, 1.0), lambda x: value)
        for run, config in ((run_de, DEConfig("rand1exp", pop_size=10)), (run_sqg, SQGConfig(warm_start_samples=10))):
            trace = run(config, fn, 50, 1)
            assert trace.points == ((50, np.inf),)
            write_trace(tmp_path / "t.csv", trace)
            assert _read_trace(tmp_path / "t.csv") == RunTrace(((50, np.inf),), 50)


def test_ensure_rse_targets_computes_once(tmp_path):
    spec = small_spec(tmp_path)
    first = ensure_rse_targets(spec)
    value = first[("sphere2", 2)].value
    # a second call must reuse the stored value, not recompute it
    rse_path = tmp_path / "rse.csv"
    text = rse_path.read_text()
    tampered = text.replace(repr(value), repr(123.456))
    assert tampered != text
    rse_path.write_text(tampered)
    second = ensure_rse_targets(spec)
    assert second[("sphere2", 2)].value == 123.456


# --- the benchmark matrix ---------------------------------------------------


def test_matrix_cardinality_and_budget_audit(tmp_path):
    records = run_benchmark(small_spec(tmp_path / "out"))
    assert len(records) == 2 * 1 * 1 * 5
    assert all(r.evals_used <= 60 for r in records)
    keys = {r.key for r in records}
    assert len(keys) == 10
    assert (tmp_path / "out" / "runs.csv").exists()
    assert (tmp_path / "out" / "spec.json").exists()
    for r in records:
        assert (tmp_path / "out" / r.trace_path).exists()


def test_rerun_is_byte_identical(tmp_path):
    run_benchmark(small_spec(tmp_path / "a"))
    run_benchmark(small_spec(tmp_path / "b"))
    assert (tmp_path / "a" / "runs.csv").read_bytes() == (tmp_path / "b" / "runs.csv").read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path):
    run_benchmark(small_spec(tmp_path / "resumed", reps=3))
    run_benchmark(small_spec(tmp_path / "resumed", reps=6))
    run_benchmark(small_spec(tmp_path / "fresh", reps=6))
    assert (
        (tmp_path / "resumed" / "runs.csv").read_bytes()
        == (tmp_path / "fresh" / "runs.csv").read_bytes()
    )


def test_resume_with_more_reps_matches_uninterrupted_rse_and_ert(tmp_path):
    run_benchmark(small_spec(tmp_path / "resumed", reps=3))
    run_benchmark(small_spec(tmp_path / "resumed", reps=6))
    run_benchmark(small_spec(tmp_path / "fresh", reps=6))
    for name in ("resumed", "fresh"):
        summarize(tmp_path / name)
    for table in ("rse.csv", "ert.csv"):
        assert (tmp_path / "resumed" / table).read_bytes() == (tmp_path / "fresh" / table).read_bytes()


def _results(out):
    """Every result file of a directory but spec.json, which names the directory."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "spec.json"
    }


def sphere_spec(out, reps=3):
    return BenchmarkSpec(
        algorithms=[algorithm_preset("de")],
        functions=[FunctionDescriptor(label="sphere", kind="sphere", seed=3)],
        dims=[2],
        budget=200,
        reps=reps,
        master_seed=7,
        output_dir=str(out),
    )


_KILLED = 99  # the exit status of a process _crash_at_trace_write kills


def _crash_at_trace_write(monkeypatch, k, kill=False):
    """Make the k-th trace write from now on raise, as an error there would, or end the process as a kill would."""
    real, written = harness.write_trace, []

    def write(path, trace):
        written.append(path)
        if len(written) == k:
            if kill:
                os._exit(_KILLED)  # no finally, no flush, no close
            raise OSError("crashed")
        real(path, trace)

    monkeypatch.setattr(harness, "write_trace", write)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="patches reach the workers only when they fork"
)


@pytest.mark.parametrize("crash", ["error", pytest.param("kill", marks=fork_only)])
def test_resume_drops_a_row_cut_short(tmp_path, monkeypatch, crash):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=5))
    fresh = (tmp_path / "fresh" / "runs.csv").read_text().splitlines(keepends=True)
    cut = tmp_path / "cut"
    run_benchmark(sphere_spec(cut))
    runs_path = cut / "runs.csv"
    text = runs_path.read_text()
    runs_path.write_text(text[:-6])  # the last best_fitness loses digits and the newline
    assert len(runs_path.read_text().splitlines()[-1].split(",")) == 7
    # A resume that crashes at its 3rd trace write, after re-running the cut
    # row and one more. An error ends in the call's finally. A kill of the
    # parent (serial, so no pool worker outlives it) leaves the rows appended
    # after the cut one as they are: each must be on disk, on a line of its own.
    if crash == "error":
        _crash_at_trace_write(monkeypatch, 3)
        with pytest.raises(OSError, match="crashed"):
            run_benchmark(sphere_spec(cut, reps=5))
        monkeypatch.undo()
    else:

        def killed_resume():
            _crash_at_trace_write(monkeypatch, 3, kill=True)
            run_benchmark(sphere_spec(cut, reps=5))

        child = multiprocessing.get_context("fork").Process(target=killed_resume)
        child.start()
        child.join(timeout=60)
        assert child.exitcode == _KILLED  # None if the child still runs
    assert all(len(line.split(",")) == 7 for line in runs_path.read_text().splitlines())
    assert runs_path.read_text() == "".join(fresh[: 1 + 2 + 2])  # the header, the two kept rows, the two finished runs
    run_benchmark(sphere_spec(cut, reps=5))
    assert runs_path.read_bytes() == (tmp_path / "fresh" / "runs.csv").read_bytes()


def _drop_last_point(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _swap_first_points(text):
    lines = text.splitlines(keepends=True)
    return "".join([lines[0], lines[2], lines[1]] + lines[3:])


def _nan_second_point(text):
    lines = text.splitlines(keepends=True)
    assert len(lines) > 3  # the NaN point is not the last, which the row's best_fitness checks
    lines[2] = lines[2].split(",")[0] + ",nan\n"
    return "".join(lines)


def _second_point(edit):
    """Damage the second point of a trace; it is not the last, which the row's best_fitness checks."""

    def damage(text):
        lines = text.splitlines(keepends=True)
        assert len(lines) > 3
        lines[2] = edit(lines[2])
        return "".join(lines)

    return damage


@pytest.mark.parametrize(
    "damage",
    [
        None,  # the trace file is missing
        lambda text: "",
        lambda text: text.replace("eval,best", "evals,best"),
        _swap_first_points,
        _nan_second_point,
        _drop_last_point,  # parses, but disagrees with the row
        lambda text: text[:-1],  # the last point lost only its newline
        _second_point(lambda line: line.split(",")[0] + ",x\n"),
        _second_point(lambda line: line[:-1] + ",0\n"),
        _second_point(lambda line: line.replace(",", "")),
    ],
    ids=[
        "missing", "empty", "bad_header", "out_of_order", "nan_point", "disagrees", "no_final_newline",
        "unparsable_point", "three_fields", "one_field",
    ],
)
def test_resume_runs_again_a_run_with_a_bad_trace(tmp_path, damage):
    run_benchmark(sphere_spec(tmp_path / "fresh"))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out))
    trace_path = sorted((out / "traces").iterdir())[1]
    if damage is None:
        trace_path.unlink()
    else:
        trace_path.write_text(damage(trace_path.read_text()))
    run_benchmark(sphere_spec(out))
    for name in ("fresh", "damaged"):
        summarize(tmp_path / name)
    assert _results(out) == _results(tmp_path / "fresh")


def test_resume_runs_again_a_run_whose_trace_holds_only_its_header(tmp_path):
    run_benchmark(sphere_spec(tmp_path / "fresh"))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out))
    # as older versions wrote a run that never saw a finite value
    lines = (out / "runs.csv").read_text().splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + ",inf\n"
    (out / "runs.csv").write_text("".join(lines))
    trace_path = sorted((out / "traces").iterdir())[1]
    trace_path.write_text("eval,best\n")
    run_benchmark(sphere_spec(out))
    for name in ("fresh", "damaged"):
        summarize(tmp_path / name)
    assert _results(out) == _results(tmp_path / "fresh")


@pytest.mark.parametrize(
    "cut",
    [lambda text: text[:-6], lambda text: text[: text.rindex(",")]],
    ids=["inside_the_last_value", "mid_row"],
)
def test_resume_estimates_again_a_cut_rse_row(tmp_path, cut):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "cut"
    run_benchmark(sphere_spec(out, reps=2))
    rse_path = out / "rse.csv"
    text = cut(rse_path.read_text())
    assert text[-1].isdigit()  # no newline ends the last row
    rse_path.write_text(text)
    run_benchmark(sphere_spec(out, reps=2))
    for name in ("fresh", "cut"):
        summarize(tmp_path / name)
    assert _results(out) == _results(tmp_path / "fresh")


def _replace_field(index, value):
    """Damage the second line of a CSV: set one field, drop it if ``value`` is None, or add one if ``index`` is None."""

    def damage(text):
        lines = text.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        if index is None:
            fields.append(value)
        elif value is None:
            del fields[index]
        else:
            fields[index] = value
        lines[1] = ",".join(fields) + "\n"
        return "".join(lines)

    return damage


@pytest.mark.parametrize(
    "name, damage",
    [
        ("runs.csv", _replace_field(-1, None)),
        ("runs.csv", _replace_field(5, "12x")),
        ("rse.csv", _replace_field(-1, None)),
        ("rse.csv", _replace_field(-1, "1.5e")),
        ("runs.csv", _replace_field(None, "7")),
        ("rse.csv", _replace_field(None, "7")),
    ],
    ids=["runs_field_count", "runs_number", "rse_field_count", "rse_number", "runs_extra_field", "rse_extra_field"],
)
def test_resume_does_again_a_newline_ended_row_that_does_not_parse(tmp_path, caplog, name, damage):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out, reps=2))
    path = out / name
    text = damage(path.read_text())
    assert text.endswith("\n") and text != path.read_text()
    path.write_text(text)
    caplog.set_level(logging.INFO, logger="sqgde.harness")
    run_benchmark(sphere_spec(out, reps=2))
    # the damaged row's work, and only it, is done again: one "run" or one "rse" log line
    assert [r.getMessage()[:3] for r in caplog.records] == [name[:3]]
    for d in ("fresh", "damaged"):
        summarize(tmp_path / d)
    assert _results(out) == _results(tmp_path / "fresh")


def test_resume_does_again_a_row_whose_name_cannot_be_a_file_name_part(tmp_path):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out, reps=2))
    # A row for the algorithm "../x" would read its trace from outside traces/;
    # a matching file there must not make it count, though the row has the seed its key derives.
    planted = out / "x__sphere__d2__r0000.csv"
    planted.write_bytes((out / "traces" / "de__sphere__d2__r0000.csv").read_bytes())
    row = (out / "runs.csv").read_text().splitlines()[1].split(",")
    assert row[:4] == ["de", "sphere", "2", "0"]
    with open(out / "runs.csv", "a") as fh:
        fh.write(",".join(["../x", *row[1:4], str(run_seed(7, "../x", "sphere", 2, 0)), *row[5:]]) + "\n")
    run_benchmark(sphere_spec(out, reps=2))
    for d in ("fresh", "damaged"):
        summarize(tmp_path / d)
    planted.unlink()
    assert _results(out) == _results(tmp_path / "fresh")


def _join_a_cut_label(out):
    """Cut rse.csv's first row inside its label and join the next line to it, as a lost write can."""
    lines = (out / "rse.csv").read_text().splitlines(keepends=True)
    assert [line[:7] for line in lines[1:]] == ["sphere,", "sphere,"]
    (out / "rse.csv").write_text("".join([lines[0], "sph" + lines[2]]))
    return []


def _plant_a_run(algorithm, rep):
    """Append a runs.csv row of rep 0's run under another key, with that key's seed, and copy its trace there."""

    def damage(out):
        row = (out / "runs.csv").read_text().splitlines()[1].split(",")
        assert row[:4] == ["de", "sphere", "2", "0"]
        planted = harness.RunRecord(algorithm, "sphere", 2, rep, run_seed(7, algorithm, "sphere", 2, rep), *row[5:])
        shutil.copyfile(out / "traces" / "de__sphere__d2__r0000.csv", out / planted.trace_path)
        with open(out / "runs.csv", "a") as fh:
            fh.write(",".join(map(str, planted)) + "\n")
        return [out / planted.trace_path]

    return damage


@pytest.mark.parametrize(
    "damage",
    [_join_a_cut_label, _plant_a_run("ghost", 0), _plant_a_run("de", 2)],
    ids=["rse_label_joined_to_the_next_line", "runs_algorithm_no_spec_names", "runs_rep_past_the_reps"],
)
def test_resume_drops_a_row_of_a_cell_no_spec_names(tmp_path, damage):
    # a row counts only if the merged spec, the one spec.json records, names its cell
    out = tmp_path / "damaged"
    spec = replace(sphere_spec(out, reps=2), dims=[2, 3])
    fresh = run_benchmark(replace(spec, output_dir=str(tmp_path / "fresh")))
    run_benchmark(spec)
    planted = damage(out)
    assert run_benchmark(spec) == fresh
    for d in ("fresh", "damaged"):
        summarize(tmp_path / d)
    for path in planted:
        path.unlink()
    assert _results(out) == _results(tmp_path / "fresh")


def _not_utf8(line):
    """Damage a line of a results file with a byte that is not UTF-8."""

    def damage(data):
        lines = data.splitlines(keepends=True)
        return b"".join(lines[:line] + [b"\xff" + lines[line]] + lines[line + 1 :])

    return damage


@pytest.mark.parametrize(
    "name, damage",
    [
        ("runs.csv", lambda data: data + b"\xff\n"),
        ("runs.csv", _not_utf8(1)),
        ("rse.csv", _not_utf8(1)),
        ("traces/de__sphere__d2__r0001.csv", _not_utf8(1)),
    ],
    ids=["runs_appended_row", "runs_row", "rse_row", "trace_point"],
)
def test_resume_does_again_a_line_that_is_not_utf8(tmp_path, name, damage):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out, reps=2))
    path = out / name
    path.write_bytes(damage(path.read_bytes()))
    if name != "rse.csv":  # summarize leaves out the damaged run; a cell without its target is refused
        summarize(out)
    run_benchmark(sphere_spec(out, reps=2))
    for d in ("fresh", "damaged"):
        summarize(tmp_path / d)
    assert _results(out) == _results(tmp_path / "fresh")


def test_resume_ignores_a_conflicting_runs_row_after_a_valid_one(tmp_path):
    fresh = run_benchmark(sphere_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out, reps=2))
    row = (out / "runs.csv").read_text().splitlines()[1]
    with open(out / "runs.csv", "a") as fh:  # the same key, another best_fitness
        fh.write(row.rsplit(",", 1)[0] + ",0.5\n")
    assert [rec for rec, _ in harness._load_runs(out, sphere_spec(out, reps=2))] == fresh
    run_benchmark(sphere_spec(out, reps=2))
    for d in ("fresh", "damaged"):
        summarize(tmp_path / d)
    assert _results(out) == _results(tmp_path / "fresh")


def test_resume_ignores_a_conflicting_rse_row_after_a_valid_one(tmp_path):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out, reps=2))
    rse_path = out / "rse.csv"
    stored = harness._load_table(rse_path, RseTarget, 2)
    row = rse_path.read_text().splitlines()[1]
    conflicting = float(row.rsplit(",", 1)[1]) * 100
    with open(rse_path, "a") as fh:  # the same cell and reps, another value
        fh.write(f"{row.rsplit(',', 1)[0]},{conflicting!r}\n")
    assert harness._load_table(rse_path, RseTarget, 2) == stored
    run_benchmark(sphere_spec(out, reps=2))
    for d in ("fresh", "damaged"):
        summarize(tmp_path / d)
    assert _results(out) == _results(tmp_path / "fresh")


def _raise_field(index):
    """Damage the second line of a CSV: add 1 to its integer field ``index``, so the row still parses."""

    def damage(text):
        lines = text.splitlines(keepends=True)
        fields = lines[1].rstrip("\n").split(",")
        fields[index] = str(int(fields[index]) + 1)
        lines[1] = ",".join(fields) + "\n"
        return "".join(lines)

    return damage


@pytest.mark.parametrize(
    "name, damage",
    [("runs.csv", _raise_field(RUNS_COLUMNS.index("seed"))), ("rse.csv", _raise_field(RSE_COLUMNS.index("reps")))],
    ids=["runs_seed", "rse_reps"],
)
def test_resume_does_again_a_row_of_another_seed_or_reps(tmp_path, name, damage):
    # a run's row counts only under the seed its key derives, and a target only at the recorded reps
    run_benchmark(sphere_spec(tmp_path / "fresh"))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out))
    path = out / name
    path.write_text(damage(path.read_text()))
    run_benchmark(sphere_spec(out))
    assert _results(out) == _results(tmp_path / "fresh")


@pytest.mark.parametrize("call", [run_benchmark, ensure_rse_targets])
def test_resume_with_nothing_to_estimate_drops_an_rse_row_that_does_not_parse(tmp_path, call):
    run_benchmark(sphere_spec(tmp_path / "fresh"))
    out = tmp_path / "damaged"
    run_benchmark(sphere_spec(out))
    with open(out / "rse.csv", "a") as fh:
        fh.write("shifted_sphere,2,abc\n")
    call(sphere_spec(out))
    assert (out / "rse.csv").read_bytes() == (tmp_path / "fresh" / "rse.csv").read_bytes()


def test_interrupted_matrix_resumes_to_the_same_bytes(tmp_path, monkeypatch):
    out = tmp_path / "resumed"
    _crash_at_trace_write(monkeypatch, 4)
    with pytest.raises(OSError, match="crashed"):
        run_benchmark(small_spec(out))
    monkeypatch.undo()
    assert len((out / "runs.csv").read_text().splitlines()) == 1 + 3
    run_benchmark(small_spec(out))
    run_benchmark(small_spec(tmp_path / "fresh"))
    for name in ("resumed", "fresh"):
        summarize(tmp_path / name)
    assert _results(out) == _results(tmp_path / "fresh")


def _property_spec(out):
    """12 cheap runs and 2 targets: two algorithms on two functions at D = 2, 3 reps."""
    rastrigin = FunctionDescriptor(label="rastrigin2", kind="rastrigin", seed=4)
    return replace(small_spec(out, reps=3), functions=[*small_spec(out).functions, rastrigin])


@pytest.fixture(scope="session")
def finished_dir(tmp_path_factory):
    """A finished directory of ``_property_spec``, built once per session and only read."""
    out = tmp_path_factory.mktemp("finished")
    run_benchmark(_property_spec(out))
    return out


# A changed field's drawn values. Text has no newline, so a changed field stays in its line.
_TEXT = st.text(st.characters(exclude_characters="\n")).map(str.encode)
_NUMBER = st.integers(-1, 2**64).map(b"%d".__mod__)
_NAMED = [b"de_small", b"sqg_small", b"sphere2", b"rastrigin2", b"0", b"1", b"2", b"3"]  # _property_spec's, rep 3 past
_LABELS = (b"sphere2", b"rastrigin2")  # neither ends the other, so no cut label joined before one makes the other
# The fields a change may set in each resumable table. A runs.csv key or seed may take any value, also another
# run's key. An rse.csv key moves only to a cell no spec names: a changed label ends no named label, so no cut
# label joined before it makes one either. rse.csv's reps may take any number.
_CHANGED_FIELDS = {
    "runs.csv": dict.fromkeys(range(RUNS_COLUMNS.index("seed") + 1), st.sampled_from(_NAMED) | _TEXT | _NUMBER),
    "rse.csv": {
        RSE_COLUMNS.index("function"): _TEXT.filter(lambda v: not any(label.endswith(v) for label in _LABELS)),
        RSE_COLUMNS.index("dim"): st.integers(-1, 1000).filter(lambda d: d != 2).map(b"%d".__mod__),  # its one dim
        RSE_COLUMNS.index("reps"): st.integers(0, 1000).map(b"%d".__mod__),
    },
}


def _draw_damage(data, name, raw):
    """``raw``, the bytes of ``name``, with one drawn damage.

    A line is newline-ended, as the harness reads it; a tail a truncation
    or a join left stays the file's last bytes. A join cuts a line of a
    resumable table inside, so the next line joins what is left of it, as a
    lost write can.
    """
    *lines, tail = raw.split(b"\n")
    lines = [line + b"\n" for line in lines]
    kinds = ["truncate", "delete", "duplicate", "swap"] + (["change", "join"] if name in _CHANGED_FIELDS else [])
    kind = data.draw(st.sampled_from(kinds), label=f"{name} damage")
    if kind == "truncate" or not lines:
        return raw[: data.draw(st.integers(0, max(len(raw) - 1, 0)), label="cut at")]
    last = len(lines) - 1
    if kind == "delete" and name.startswith("traces/"):
        i = data.draw(st.sampled_from([0, last]), label="header or last point")
    else:  # a field is changed in a row, not in the header
        i = data.draw(st.integers(min(1, last) if kind == "change" else 0, last), label="line")
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        j = data.draw(st.integers(0, last), label="with line")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "join":  # the next line, or the file's tail, joins what is left of line i
        lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i]) - 1), label="cut at")]
    else:  # a header left in a row's place by other damage changes too; a line of too few fields stays
        fields = lines[i][:-1].split(b",")
        index = data.draw(st.sampled_from(sorted(_CHANGED_FIELDS[name])), label="field")
        if index < len(fields):
            fields[index] = data.draw(_CHANGED_FIELDS[name][index], label="to")
            lines[i] = b",".join(fields) + b"\n"
    return b"".join(lines) + tail


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_resume_after_drawn_damage_gives_the_fresh_bytes(finished_dir, data):
    """Damage a finished directory 1-3 times, maybe kill a resume, resume it: the bytes of the finished one.

    Left out, because no resume can tell them from a result without running
    the work again: a lost inner trace point (the trace keeps its order and
    still ends on its row), a changed value of an inner point or a target,
    and an rse.csv target moved onto another named cell, which looks like a
    changed target value.
    """
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "damaged"
        shutil.copytree(finished_dir, out)
        traces = sorted(f"traces/{p.name}" for p in (out / "traces").iterdir())
        for _ in range(data.draw(st.integers(1, 3), label="damages")):
            name = data.draw(st.sampled_from(["runs.csv", "rse.csv", "a trace"]), label="file")
            if name == "a trace":  # each at most once: a second damage could cut it after a point swapped to the end
                traces.remove(name := data.draw(st.sampled_from(traces), label="trace"))
            (out / name).write_bytes(_draw_damage(data, name, (out / name).read_bytes()))
        spec = _property_spec(out)
        if multiprocessing.get_start_method() == "fork" and (k := data.draw(st.integers(0, 3), label="kill at")):

            def killed_resume():
                with pytest.MonkeyPatch.context() as mp:
                    _crash_at_trace_write(mp, k, kill=True)
                    run_benchmark(spec)

            child = multiprocessing.get_context("fork").Process(target=killed_resume)
            child.start()
            child.join(timeout=60)
            assert child.exitcode in (0, _KILLED)  # 0 if the resume wrote fewer than k traces
        run_benchmark(spec, workers=data.draw(st.sampled_from([1, 2]), label="workers"))
        assert _results(out) == _results(finished_dir)
        recorded = json.loads((out / "spec.json").read_text())
        assert {**recorded, "output_dir": str(finished_dir)} == json.loads((finished_dir / "spec.json").read_text())


@fork_only
def test_error_in_the_parent_cancels_queued_runs(tmp_path, monkeypatch):
    started, real = tmp_path / "started", harness.execute_run
    started.mkdir()

    def slow_run(algo, fn, budget, seed):
        (started / str(seed)).touch()
        time.sleep(0.02)
        return real(algo, fn, budget, seed)

    monkeypatch.setattr(harness, "execute_run", slow_run)
    _crash_at_trace_write(monkeypatch, 1)
    with pytest.raises(OSError, match="crashed"):
        run_benchmark(sphere_spec(tmp_path / "out", reps=40), workers=2)
    assert len(list(started.iterdir())) <= 20


def _blas_threads():
    """numpy's scipy-openblas thread count getter; skips the test where the wheel lacks it."""
    import ctypes

    from numpy.linalg import _umath_linalg

    getter = getattr(ctypes.CDLL(_umath_linalg.__file__), "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        pytest.skip("numpy's BLAS exports no scipy-openblas thread count")
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter


@fork_only
@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts a process's threads in /proc")
def test_pool_workers_run_one_blas_thread_and_no_idle_pool(tmp_path, monkeypatch):
    threads, seen, real = _blas_threads(), tmp_path / "threads", harness.execute_run
    seen.mkdir()
    in_parent = threads()

    def counting_run(algo, fn, budget, seed):
        # BLAS threads, then the worker's own threads: an idle OpenBLAS pool thread spins
        (seen / f"{threads()}-{len(os.listdir('/proc/self/task'))}").touch()
        return real(algo, fn, budget, seed)

    monkeypatch.setattr(harness, "execute_run", counting_run)
    run_benchmark(sphere_spec(tmp_path / "out", reps=4), workers=2)
    assert [p.name for p in seen.iterdir()] == ["1-1"]
    assert threads() == in_parent


@fork_only
def test_crashed_worker_resumes_to_the_same_bytes(tmp_path, monkeypatch):
    real, doomed = harness.execute_run, run_seed(7, "de", "sphere", 2, 3)

    def crashing_run(algo, fn, budget, seed):
        if seed == doomed:
            os._exit(1)
        return real(algo, fn, budget, seed)

    out = tmp_path / "resumed"
    monkeypatch.setattr(harness, "execute_run", crashing_run)
    with pytest.raises(BrokenProcessPool):
        run_benchmark(sphere_spec(out, reps=6), workers=2)
    monkeypatch.undo()
    assert all(len(line.split(",")) == 7 for line in (out / "runs.csv").read_text().splitlines())
    run_benchmark(sphere_spec(out, reps=6), workers=2)
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=6))
    for name in ("resumed", "fresh"):
        summarize(tmp_path / name)
    assert _results(out) == _results(tmp_path / "fresh")


def test_spec_records_stream_version(tmp_path):
    run_benchmark(small_spec(tmp_path))
    assert json.loads((tmp_path / "spec.json").read_text())["stream_version"] == STREAM_VERSION


@pytest.mark.parametrize("recorded", [None, 1, 3])
def test_resume_refuses_other_stream_version(tmp_path, recorded):
    # a directory written before stream versions existed: spec.json without
    # a version (or with an older one), plus results
    spec = small_spec(tmp_path)
    record = spec.to_dict()
    if recorded is not None:
        record["stream_version"] = recorded
    (tmp_path / "spec.json").write_text(json.dumps(record))
    (tmp_path / "rse.csv").write_text("function,dim,budget,reps,value\nsphere2,2,60,5,1.5\n")
    with pytest.raises(ValueError, match="stream version"):
        ensure_rse_targets(spec)
    with pytest.raises(ValueError, match="stream version"):
        run_benchmark(spec)
    assert not (tmp_path / "runs.csv").exists()


def test_resume_refuses_changed_budget_and_master_seed(tmp_path):
    spec = replace(small_spec(tmp_path, reps=2, seed=1), budget=50)
    run_benchmark(spec)
    before = {name: (tmp_path / name).read_bytes() for name in ("spec.json", "rse.csv", "runs.csv")}
    changed = replace(spec, budget=400, master_seed=2)
    with pytest.raises(ValueError, match="budget 50 != 400; master_seed 1 != 2"):
        run_benchmark(changed)
    with pytest.raises(ValueError, match="budget"):
        ensure_rse_targets(changed)
    for field, value in (("budget", 400), ("master_seed", 2)):
        with pytest.raises(ValueError, match=field):
            run_benchmark(replace(spec, **{field: value}))
    assert {name: (tmp_path / name).read_bytes() for name in before} == before


def test_resume_refuses_changed_algorithm_or_function(tmp_path):
    spec = small_spec(tmp_path, reps=2)
    run_benchmark(spec)
    tuned = AlgorithmSpec("de_small", DEConfig("rand1exp", F=0.5, pop_size=10))
    with pytest.raises(ValueError, match="algorithm 'de_small' changed"):
        run_benchmark(replace(spec, algorithms=[tuned]))
    reseeded = FunctionDescriptor(label="sphere2", kind="sphere", seed=4)
    with pytest.raises(ValueError, match="function 'sphere2' changed"):
        ensure_rse_targets(replace(spec, functions=[reseeded]))


def test_rse_targets_alone_record_their_benchmark(tmp_path):
    sphere = FunctionDescriptor(label="f", kind="sphere", seed=3)
    spec = replace(sphere_spec(tmp_path, reps=2), functions=[sphere], dims=[3], master_seed=1)
    ensure_rse_targets(spec)
    assert BenchmarkSpec.from_dict(json.loads((tmp_path / "spec.json").read_text())) == spec
    before = {name: (tmp_path / name).read_bytes() for name in ("spec.json", "rse.csv")}
    other = FunctionDescriptor(label="f", kind="rastrigin", seed=9)
    for changes, clash in (
        (dict(master_seed=2), "master_seed 1 != 2"),
        (dict(functions=[other]), "function 'f' changed"),
        (dict(master_seed=2, functions=[other]), "master_seed 1 != 2; function 'f' changed"),
    ):
        with pytest.raises(ValueError, match=clash):
            run_benchmark(replace(spec, **changes))
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert not (tmp_path / "runs.csv").exists()


def test_rse_targets_of_another_budget_are_refused(tmp_path):
    # an rse.csv without a spec.json beside it; the refusal sees the rows of cells no spec names too
    for cell in ("sphere2,2", "ghost,2", "sphere2,9"):
        (tmp_path / "rse.csv").write_text(f"function,dim,budget,reps,value\n{cell},50,5,1.5\n")
        with pytest.raises(ValueError, match="rse.csv 50, spec 60"):
            ensure_rse_targets(small_spec(tmp_path))


def test_resume_reads_a_recorded_spec_as_the_reader_does(tmp_path):
    # spec.json may name a preset instead of writing out its entry, as a --config file may
    spec = replace(small_spec(tmp_path / "names", reps=1), algorithms=[algorithm_preset("de")])
    run_benchmark(spec)
    record = json.loads((tmp_path / "names" / "spec.json").read_text())
    (tmp_path / "names" / "spec.json").write_text(json.dumps({**record, "algorithms": ["de"]}))
    assert len(run_benchmark(replace(spec, reps=2))) == 2
    run_benchmark(replace(spec, reps=2, output_dir=str(tmp_path / "entries")))
    assert (tmp_path / "names" / "runs.csv").read_bytes() == (tmp_path / "entries" / "runs.csv").read_bytes()
    # the resume records the entry the name stands for
    recorded = BenchmarkSpec.from_dict(json.loads((tmp_path / "names" / "spec.json").read_text()))
    assert recorded.algorithms == [algorithm_preset("de")]


def test_resume_adds_algorithms_functions_dims_and_reps(tmp_path):
    spec = small_spec(tmp_path, reps=3)
    run_benchmark(replace(spec, algorithms=spec.algorithms[:1]))
    wider = replace(
        spec,
        algorithms=spec.algorithms[1:],
        functions=spec.functions + [FunctionDescriptor(label="rast2", kind="rastrigin", seed=5)],
        dims=[2, 3],
        reps=2,
    )
    records = run_benchmark(wider)
    assert len(records) == 3 + 2 * 2 * 2
    recorded = BenchmarkSpec.from_dict(json.loads((tmp_path / "spec.json").read_text()))
    assert [a.name for a in recorded.algorithms] == ["de_small", "sqg_small"]
    assert [f.label for f in recorded.functions] == ["sphere2", "rast2"]
    assert (recorded.dims, recorded.reps) == ([2, 3], 3)
    # the recorded spec still guards the algorithm the second call left out
    with pytest.raises(ValueError, match="de_small"):
        run_benchmark(replace(spec, algorithms=[AlgorithmSpec("de_small", DEConfig("best2bin", pop_size=10))]))


def test_function_that_does_not_build_records_no_spec(tmp_path):
    spec = small_spec(tmp_path / "fixed", reps=2)
    typo = FunctionDescriptor(label="sphere2", kind="spherex", seed=3)
    with pytest.raises(ValueError, match="unknown base function kind 'spherex'"):
        run_benchmark(replace(spec, functions=[typo]))
    assert not (tmp_path / "fixed" / "spec.json").exists()
    run_benchmark(spec)
    run_benchmark(small_spec(tmp_path / "fresh", reps=2))
    for name in ("fixed", "fresh"):
        summarize(tmp_path / name)
    assert _results(tmp_path / "fixed") == _results(tmp_path / "fresh")


def test_run_benchmark_refuses_zero_workers(tmp_path):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        run_benchmark(small_spec(tmp_path / "out"), workers=0)
    assert not (tmp_path / "out").exists()


def test_a_spec_changed_after_it_was_built_is_checked_again(tmp_path):
    spec = small_spec(tmp_path / "out")
    spec.dims.append(2)
    with pytest.raises(ValueError, match="dims must be unique"):
        run_benchmark(spec)
    spec.dims.pop()
    spec.functions[0] = replace(spec.functions[0], label="a,b")
    with pytest.raises(ValueError, match="function label 'a,b'"):
        ensure_rse_targets(spec)
    assert not (tmp_path / "out").exists()


def test_workers_do_not_change_results(tmp_path):
    run_benchmark(small_spec(tmp_path / "serial"), workers=1)
    run_benchmark(small_spec(tmp_path / "pool"), workers=2)
    assert (
        (tmp_path / "serial" / "runs.csv").read_bytes()
        == (tmp_path / "pool" / "runs.csv").read_bytes()
    )


def _two_cell_spec(out, reps=3):
    return replace(
        small_spec(out, reps=reps),
        functions=[
            FunctionDescriptor(label="sphere2", kind="sphere", seed=3),
            FunctionDescriptor(
                label="hybrid", composition=[ComponentDescriptor("sphere"), ComponentDescriptor("rastrigin")], seed=4
            ),
        ],
        dims=[2, 3],
    )


_TWO_CELLS = [("hybrid", 2), ("hybrid", 3), ("sphere2", 2), ("sphere2", 3)]


def _count_builds(monkeypatch):
    """Record each (label, dim) the harness builds; every build happens in the calling process."""
    real, built = harness.make_test_function, []

    def counting_build(desc, seed=None, dim=None):
        built.append((desc.label, dim))
        return real(desc, seed=seed, dim=dim)

    monkeypatch.setattr(harness, "make_test_function", counting_build)
    return built


def test_serial_run_builds_each_function_once(tmp_path, monkeypatch):
    spec = _two_cell_spec(tmp_path / "serial")
    ensure_rse_targets(spec)  # builds every cell once for its target
    built = _count_builds(monkeypatch)
    run_benchmark(spec)
    monkeypatch.undo()
    assert sorted(built) == _TWO_CELLS
    run_benchmark(replace(spec, output_dir=str(tmp_path / "pool")), workers=2)
    assert _results(tmp_path / "serial") == _results(tmp_path / "pool")


@fork_only
def test_pool_builds_once_per_task(tmp_path, monkeypatch):
    spec = _two_cell_spec(tmp_path / "pool", reps=5)
    ensure_rse_targets(spec)  # builds every cell once for its target
    built = _count_builds(monkeypatch)
    run_benchmark(spec, workers=2)  # 10 runs per cell, in tasks of 4, 4 and 2 that share one build
    monkeypatch.undo()
    assert sorted(built) == _TWO_CELLS
    run_benchmark(_two_cell_spec(tmp_path / "serial", reps=5))
    assert _results(tmp_path / "pool") == _results(tmp_path / "serial")


def test_fresh_serial_run_builds_each_cell_once(tmp_path, monkeypatch):
    built = _count_builds(monkeypatch)
    run_benchmark(_two_cell_spec(tmp_path))  # no ensure_rse_targets first: targets and runs share a build
    assert sorted(built) == _TWO_CELLS


@fork_only
def test_fresh_pool_run_estimates_targets_in_its_tasks(tmp_path, monkeypatch):
    real_target, estimated = harness.rse_target, tmp_path / "estimated"
    estimated.mkdir()

    def recording_target(fn, budget, reps, master_seed):
        (estimated / f"{fn.label}-{fn.space.dim}-{os.getpid()}").touch()
        return real_target(fn, budget, reps, master_seed)

    built = _count_builds(monkeypatch)
    monkeypatch.setattr(harness, "rse_target", recording_target)
    run_benchmark(_two_cell_spec(tmp_path / "pool", reps=5), workers=2)  # the first task of a cell estimates its target
    monkeypatch.undo()
    assert sorted(built) == _TWO_CELLS
    where = [name.split("-") for name in sorted(os.listdir(estimated))]
    assert [(label, int(dim)) for label, dim, _ in where] == _TWO_CELLS
    assert all(pid != str(os.getpid()) for _, _, pid in where)
    run_benchmark(_two_cell_spec(tmp_path / "serial", reps=5))
    for name in ("pool", "serial"):
        summarize(tmp_path / name)
    assert _results(tmp_path / "pool") == _results(tmp_path / "serial")


@fork_only
def test_every_route_gives_the_same_bytes(tmp_path, monkeypatch):
    run_benchmark(_two_cell_spec(tmp_path / "serial"))
    run_benchmark(_two_cell_spec(tmp_path / "pool"), workers=2)
    ensure_rse_targets(_two_cell_spec(tmp_path / "targets_first"))
    run_benchmark(_two_cell_spec(tmp_path / "targets_first"))
    real, doomed = harness.execute_run, run_seed(7, "sqg_small", "hybrid", 3, 1)

    def crashing_run(algo, fn, budget, seed):
        if seed == doomed:
            os._exit(1)
        return real(algo, fn, budget, seed)

    monkeypatch.setattr(harness, "execute_run", crashing_run)
    with pytest.raises(BrokenProcessPool):
        run_benchmark(_two_cell_spec(tmp_path / "crashed"), workers=2)
    monkeypatch.undo()
    run_benchmark(_two_cell_spec(tmp_path / "crashed"), workers=2)
    routes = ("serial", "pool", "targets_first", "crashed")
    for name in routes:
        summarize(tmp_path / name)
    assert all(_results(tmp_path / name) == _results(tmp_path / "serial") for name in routes)


def test_an_error_leaves_runs_csv_sorted(tmp_path, monkeypatch):
    fresh = run_benchmark(_two_cell_spec(tmp_path / "fresh", reps=2))
    out = tmp_path / "crashed"
    # Cell by cell, the 5th run is the first of the second cell (sphere2, d=3),
    # and the 6th trace write raises. The 5th run's row sorts before the
    # first cell's two sqg_small rows, which ran before it.
    _crash_at_trace_write(monkeypatch, 6)
    with pytest.raises(OSError, match="crashed"):
        run_benchmark(_two_cell_spec(out, reps=2))
    monkeypatch.undo()
    header, *rows = (tmp_path / "fresh" / "runs.csv").read_text().splitlines(keepends=True)
    finished = [(rec, row) for rec, row in zip(fresh, rows, strict=True) if (out / rec.trace_path).exists()]
    assert [(rec.algorithm, rec.function, rec.dim) for rec, _ in finished] == [
        ("de_small", "sphere2", 2),
        ("de_small", "sphere2", 2),
        ("de_small", "sphere2", 3),
        ("sqg_small", "sphere2", 2),
        ("sqg_small", "sphere2", 2),
    ]
    assert (out / "runs.csv").read_text() == header + "".join(row for _, row in finished)


def test_targets_that_arrived_are_kept_when_a_run_fails(tmp_path, monkeypatch):
    out = tmp_path / "out"
    _crash_at_trace_write(monkeypatch, 1)
    with pytest.raises(OSError, match="crashed"):
        run_benchmark(sphere_spec(out))
    monkeypatch.undo()
    assert (out / "rse.csv").read_text().splitlines()[1].startswith("sphere,2,200,3,")
    run_benchmark(sphere_spec(tmp_path / "fresh"))
    assert (out / "rse.csv").read_bytes() == (tmp_path / "fresh" / "rse.csv").read_bytes()


@pytest.mark.parametrize(
    "call",
    [ensure_rse_targets, run_benchmark, lambda spec: summarize(spec.output_dir)],
    ids=["ensure_rse_targets", "run_benchmark", "summarize"],
)
def test_a_directory_in_use_is_refused(tmp_path, call):
    out = tmp_path / "out"
    out.mkdir()
    fd = os.open(out, os.O_RDONLY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)  # as another process holding the directory would
        with pytest.raises(RuntimeError, match=f"{out} is in use"):
            call(small_spec(out))
    finally:
        os.close(fd)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "bad",
    [
        FunctionDescriptor(label="bad", kind="nope", seed=3),
        FunctionDescriptor(label="bad", kind="rosenbrock", seed=3),  # needs dim >= 2
        FunctionDescriptor(label="bad", kind="sphere", bounds=(5.0, -5.0), seed=3),
        FunctionDescriptor(label="bad", kind="sphere", bounds=(-np.inf, 5.0), seed=3),
        FunctionDescriptor(label="bad", kind="sphere", bounds=(-5.0, 0.0, 5.0), seed=3),
        FunctionDescriptor(label="bad", kind="sphere", bounds=(-1e308, 1e308), seed=3),
        FunctionDescriptor(label="bad", kind="sphere", seed=-1),
        FunctionDescriptor(label="bad", composition=[ComponentDescriptor("sphere")], seed=3),
        FunctionDescriptor(
            label="bad", composition=[ComponentDescriptor("sphere", sigma=0.0), ComponentDescriptor("ackley")], seed=3
        ),
        FunctionDescriptor(
            label="bad", composition=[ComponentDescriptor("sphere", lam=-1.0), ComponentDescriptor("ackley")], seed=3
        ),
        FunctionDescriptor(
            label="bad", composition=[ComponentDescriptor("sphere", sigma=np.nan), ComponentDescriptor("ackley")], seed=3
        ),
        FunctionDescriptor(
            label="bad", composition=[ComponentDescriptor("sphere", lam=np.inf), ComponentDescriptor("ackley")], seed=3
        ),
        FunctionDescriptor(
            label="bad", composition=[ComponentDescriptor("sphere", bias=np.nan), ComponentDescriptor("ackley")], seed=3
        ),
        FunctionDescriptor(label="bad", kind="sphere", bias=np.nan, seed=3),
        FunctionDescriptor(label="bad", kind="sphere", bias=-np.inf, seed=3),
        FunctionDescriptor(
            label="bad",
            composition=[ComponentDescriptor("sphere"), ComponentDescriptor("ackley")],
            bias=100.0,
            seed=3,
        ),
        FunctionDescriptor(
            label="bad",
            composition=[ComponentDescriptor("sphere"), ComponentDescriptor("ackley")],
            optimum_on_bounds=True,
            seed=3,
        ),
    ],
    ids=[
        "unknown_kind",
        "dim_below_min_dim",
        "reversed_bounds",
        "infinite_bounds",
        "bounds_not_a_pair",
        "width_overflows",
        "negative_seed",
        "one_component",
        "zero_sigma",
        "negative_lambda",
        "nan_sigma",
        "infinite_lambda",
        "nan_component_bias",
        "nan_bias",
        "negative_infinite_bias",
        "composition_bias",
        "composition_optimum_on_bounds",
    ],
)
def test_a_descriptor_that_cannot_build_is_refused_before_any_build(tmp_path, monkeypatch, bad):
    ok = FunctionDescriptor(label="ok", kind="sphere", seed=3)
    spec = replace(small_spec(tmp_path, reps=1), functions=[ok, bad], dims=[1])
    built = []
    monkeypatch.setattr(harness, "make_test_function", lambda desc, seed=None, dim=None: built.append(desc))
    with pytest.raises(ValueError, match="bad: "):
        run_benchmark(spec)
    assert built == []
    assert not any((tmp_path / name).exists() for name in ("spec.json", "rse.csv", "runs.csv"))


def test_pool_starts_no_more_workers_than_tasks(tmp_path, monkeypatch):
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    run_benchmark(sphere_spec(tmp_path / "out", reps=1), workers=4)
    assert started == [1]
    run_benchmark(sphere_spec(tmp_path / "out", reps=1), workers=4)  # nothing left to run
    assert started == [1]


def test_workers_do_not_change_any_output(tmp_path):
    # 10 runs: the pool cuts them into tasks of 4, 4 and 2
    for name, workers in (("serial", 1), ("pool", 2)):
        run_benchmark(small_spec(tmp_path / name, reps=5), workers=workers)
        summarize(tmp_path / name)
    assert _results(tmp_path / "pool") == _results(tmp_path / "serial")


def test_pool_resume_of_scattered_rows_gives_the_same_bytes(tmp_path):
    out = tmp_path / "resumed"
    run_benchmark(small_spec(out, reps=5), workers=2)
    lines = (out / "runs.csv").read_text().splitlines(keepends=True)
    # drop de_small reps 1, 3, 4 and sqg_small reps 0, 2, 4: tasks that mix both
    kept = [line for i, line in enumerate(lines) if i not in (2, 4, 5, 6, 8, 10)]
    (out / "runs.csv").write_text("".join(kept))
    assert len(run_benchmark(small_spec(out, reps=5), workers=2)) == 10
    run_benchmark(small_spec(tmp_path / "fresh", reps=5), workers=1)
    for name in ("resumed", "fresh"):
        summarize(tmp_path / name)
    assert _results(out) == _results(tmp_path / "fresh")


def test_resume_with_nothing_to_do_writes_nothing(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    summarize(out)
    files = [out / name for name in ("spec.json", "rse.csv", "runs.csv", "ert.csv", "summary.csv", "bnfv.csv")]

    def stamps():
        return [(p.stat().st_ino, p.stat().st_mtime_ns) for p in files]

    before = stamps()
    time.sleep(0.01)
    run_benchmark(small_spec(out))
    ensure_rse_targets(small_spec(out))  # nor does the targets-only call
    summarize(out)  # nor does a second summarize
    assert stamps() == before


def test_seeds_differ_across_reps(tmp_path):
    records = run_benchmark(small_spec(tmp_path / "out"))
    de_seeds = [r.seed for r in records if r.algorithm == "de_small"]
    assert len(set(de_seeds)) == len(de_seeds)


def _bnfv_cell(out, algo, label, dim):
    """A cell's rows of bnfv.csv, each as a dict of its fields."""
    with open(out / "bnfv.csv", newline="") as fh:
        return [r for r in csv.DictReader(fh) if (r["algorithm"], r["function"], r["dim"]) == (algo, label, str(dim))]


def test_summarize_outputs(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    result = summarize(out)
    assert len(result.ert_rows) == 2  # algorithms x functions x dims
    assert (out / "ert.csv").exists()
    assert (out / "summary.csv").exists()
    curve = _bnfv_cell(out, "de_small", "sphere2", 2)
    assert [int(r["eval"]) for r in curve] == list(range(10, 61, 10))
    assert {r["normalized"] for r in curve} == {"true"}
    assert not (out / "bnfv").exists()  # one file, not one per cell
    # the per-cell directory of older versions is left as it is
    (out / "bnfv").mkdir()
    (out / "bnfv" / "sphere2__d2__de_small.csv").write_text("eval,mean_bnfv,median_bnfv\n")
    before = (out / "bnfv.csv").read_bytes()
    summarize(out)
    assert (out / "bnfv.csv").read_bytes() == before
    assert (out / "bnfv" / "sphere2__d2__de_small.csv").read_text() == "eval,mean_bnfv,median_bnfv\n"
    # single category: one row per algorithm, best algorithm has no p-value
    assert len(result.summary_rows) == 2
    best_rows = [r for r in result.summary_rows if r["p_vs_best"] == ""]
    assert len(best_rows) == 1
    header = (out / "ert.csv").read_text().splitlines()[0]
    assert header == "algorithm,function,dim,ert,lower_bound,success_rate"


def test_summarize_refuses_overbudget_rows(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    runs_path = out / "runs.csv"
    lines = runs_path.read_text().splitlines()
    cols = lines[1].split(",")
    cols[5] = "61"  # over the 60-evaluation budget
    lines[1] = ",".join(cols)
    runs_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RuntimeError):
        summarize(out)


def test_resume_refuses_an_overbudget_row_before_any_write(tmp_path):
    # in a row of a named cell, of an algorithm no spec names, or of a rep past the reps
    for name, key in (("named", {}), ("algorithm", {0: "ghost"}), ("rep", {3: "7"})):
        out = tmp_path / name
        run_benchmark(small_spec(out, reps=2))
        runs_path = out / "runs.csv"
        lines = runs_path.read_text().splitlines(keepends=True)
        cols = lines[1].split(",")
        cols[5] = "61"  # over the 60-evaluation budget
        for index, value in key.items():
            cols[index] = value
        lines[1] = ",".join(cols)
        runs_path.write_text("".join(lines))
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        with pytest.raises(RuntimeError, match="over the budget 60"):
            run_benchmark(small_spec(out, reps=3))  # a resume whose spec.json would record more reps
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


def test_summarize_needs_records(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "spec.json").write_text(json.dumps(small_spec(out).to_dict()))
    with pytest.raises(ValueError):
        summarize(out)


def test_summarize_refuses_a_cell_without_its_target(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    header = (out / "rse.csv").read_text().splitlines(keepends=True)[0]
    (out / "rse.csv").write_text(header)  # the only row removed
    with pytest.raises(ValueError, match="missing random-search target for sphere2 d=2"):
        summarize(out)


def test_bnfv_csv_holds_only_the_cells_of_ert_csv(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    record = json.loads((out / "spec.json").read_text())
    record["algorithms"] = [a for a in record["algorithms"] if a["name"] == "de_small"]
    (out / "spec.json").write_text(json.dumps(record))  # sqg_small's runs are left in a directory recorded without it
    summarize(out)
    cells = {}
    for name in ("ert.csv", "bnfv.csv"):
        with open(out / name, newline="") as fh:
            cells[name] = {(r["algorithm"], r["function"], r["dim"]) for r in csv.DictReader(fh)}
    assert cells["bnfv.csv"] == cells["ert.csv"] == {("de_small", "sphere2", "2")}


def test_summarize_writes_raw_best_values_against_a_zero_target(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    header, row = (out / "rse.csv").read_text().splitlines()
    runs = [line.split(",") for line in (out / "runs.csv").read_text().splitlines()[1:]]
    finals = [float(cols[6]) for cols in runs if cols[0] == "de_small"]
    for value in ("0.0", "inf", "nan"):  # a non-finite target has no ratio either
        (out / "rse.csv").write_text(f"{header}\n{row.rsplit(',', 1)[0]},{value}\n")
        summarize(out)
        curve = _bnfv_cell(out, "de_small", "sphere2", 2)
        assert {r["normalized"] for r in curve} == {"false"}  # raw best-so-far values
        # the budget is the last grid point, where each run's best is its final best
        last = [float(curve[-1][c]) for c in ("eval", "mean", "median")]
        assert last == pytest.approx([60, np.mean(finals), np.median(finals)], rel=1e-12)


def test_bnfv_csv_holds_every_cell_in_key_order(tmp_path):
    spec = small_spec(tmp_path / "out", reps=3)
    spec.functions.append(FunctionDescriptor(label="rastrigin2", kind="rastrigin", seed=4))
    spec.dims = [2, 3]
    out = tmp_path / "out"
    records = run_benchmark(spec)
    summarize(out)
    lines = (out / "bnfv.csv").read_text().splitlines()
    assert lines[0] == "algorithm,function,dim,normalized,eval,mean,median"
    grid = list(range(10, 61, 10))
    cells = sorted({r.key[:3] for r in records})
    assert len(cells) == 2 * 2 * 2
    assert len(lines) == 1 + len(cells) * len(grid)
    rows = [line.split(",") for line in lines[1:]]
    assert [(a, f, int(d), int(e)) for a, f, d, _, e, _, _ in rows] == [(*c, e) for c in cells for e in grid]
    targets = harness._load_table(out / "rse.csv", RseTarget, 2)
    for i, (algo, label, dim) in enumerate(cells):
        traces = [_read_trace(out / r.trace_path) for r in records if r.key[:3] == (algo, label, dim)]
        curves = np.array([best_on_grid(tr, grid) / targets[(label, dim)].value for tr in traces])
        cell_rows = rows[i * len(grid) : (i + 1) * len(grid)]
        assert {r[3] for r in cell_rows} == {"true"}
        assert [float(r[5]) for r in cell_rows] == curves.mean(axis=0).tolist()
        assert [float(r[6]) for r in cell_rows] == np.median(curves, axis=0).tolist()


# --- summary table construction ---------------------------------------------


def _ert(value, lower_bound=False):
    rate = 0.0 if lower_bound else 1.0
    return ErtResult(value, lower_bound, rate)


def test_summary_rows_dominant_algorithm_p_value():
    labels = [f"f{i}" for i in range(6)]
    cells = {}
    for i, label in enumerate(labels):
        cells[("a", label, 30)] = _ert(100.0 + i)
        cells[("b", label, 30)] = _ert(500.0 + i)
    rows = build_summary_rows(cells, ["a", "b"], {l: "cat" for l in labels}, [30])
    assert len(rows) == 2
    a_row = next(r for r in rows if r["algorithm"] == "a")
    b_row = next(r for r in rows if r["algorithm"] == "b")
    assert a_row["p_vs_best"] == ""
    assert b_row["p_vs_best"] == 0.03125  # six paired wins, exact signed-rank tail
    assert a_row["mean_ert"] == pytest.approx(102.5)


def test_summary_rows_flag_lower_bounds():
    labels = ["f0", "f1"]
    cells = {
        ("a", "f0", 30): _ert(10.0),
        ("a", "f1", 30): _ert(20.0),
        ("b", "f0", 30): _ert(5000.0, lower_bound=True),
        ("b", "f1", 30): _ert(30.0),
    }
    rows = build_summary_rows(cells, ["a", "b"], {l: "cat" for l in labels}, [30])
    b_row = next(r for r in rows if r["algorithm"] == "b")
    assert b_row["flag"] == ">="
    assert next(r for r in rows if r["algorithm"] == "a")["flag"] == ""
    assert [r["category"] for r in rows] == ["cat", "cat"]  # one category needs no overall group


def test_summary_rows_overall_category():
    labels = ["f0", "f1"]
    cat_of = {"f0": "easy", "f1": "hard"}
    cells = {
        ("a", "f0", 30): _ert(10.0),
        ("a", "f1", 30): _ert(20.0),
        ("b", "f0", 30): _ert(15.0),
        ("b", "f1", 30): _ert(25.0),
    }
    rows = build_summary_rows(cells, ["a", "b"], cat_of, [30])
    categories = {r["category"] for r in rows}
    assert categories == {"easy", "hard", "overall"}
    # the categories in the order of their first label, then overall
    assert [r["category"] for r in rows] == ["easy", "easy", "hard", "hard", "overall", "overall"]
    rows = build_summary_rows(cells, ["a", "b"], {"f1": "hard", "f0": "easy"}, [30])
    assert [r["category"] for r in rows] == ["hard", "hard", "easy", "easy", "overall", "overall"]


def test_summary_rows_skip_incomplete_cells():
    labels = ["f0", "f1"]
    cells = {
        ("a", "f0", 30): _ert(10.0),
        ("a", "f1", 30): _ert(20.0),
        ("b", "f0", 30): _ert(15.0),  # b is missing f1
    }
    rows = build_summary_rows(cells, ["a", "b"], {l: "c" for l in labels}, [30])
    assert [r["algorithm"] for r in rows] == ["a"]
    # no algorithm completes category d (f2), so none completes overall either
    cat_of = {"f0": "c", "f1": "c", "f2": "d"}
    rows = build_summary_rows(cells, ["a", "b"], cat_of, [30])
    assert [(r["category"], r["algorithm"]) for r in rows] == [("c", "a")]
