import concurrent.futures
import json
import multiprocessing
import os
import tempfile
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from sqgde import harness
from sqgde.algos import DEConfig, SQGConfig
from sqgde.core import STREAM_VERSION, RunTrace
from sqgde.harness import (
    ALGORITHM_PRESETS,
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
from sqgde.metrics import ErtResult
from sqgde.testfuncs import ComponentDescriptor, FunctionDescriptor, make_test_function


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
    again = BenchmarkSpec.from_json(spec.to_json())
    assert again == spec


def test_benchmark_spec_defaults_fill_in():
    spec = BenchmarkSpec.from_dict({})
    assert [a.name for a in spec.algorithms] == ["de", "de2", "sqg", "sqgde"]
    assert len(spec.functions) == 17
    assert spec.dims == [30, 50]
    assert (spec.budget, spec.reps) == (1000, 100)


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


# --- trace and target persistence ------------------------------------------


def test_trace_roundtrip(tmp_path):
    trace = RunTrace(((1, 5.0), (7, 1.25), (30, 0.1)), 30)
    path = tmp_path / "t.csv"
    write_trace(path, trace)
    again = _read_trace(path)
    assert again.points == trace.points
    assert again.final_evals == 30
    assert path.read_text().splitlines()[0] == "eval,best"


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


def _crash_at_trace_write(monkeypatch, k):
    """Make the k-th trace write from now on raise, as a crash there would."""
    real, written = harness.write_trace, []

    def write(path, trace):
        written.append(path)
        if len(written) == k:
            raise OSError("crashed")
        real(path, trace)

    monkeypatch.setattr(harness, "write_trace", write)


def test_resume_drops_a_row_cut_short(tmp_path, monkeypatch):
    run_benchmark(sphere_spec(tmp_path / "fresh", reps=5))
    cut = tmp_path / "cut"
    run_benchmark(sphere_spec(cut))
    runs_path = cut / "runs.csv"
    text = runs_path.read_text()
    runs_path.write_text(text[:-6])  # the last best_fitness loses digits and the newline
    assert len(runs_path.read_text().splitlines()[-1].split(",")) == 7
    # A resume that crashes after re-running the cut row: rows appended
    # after the cut one must start on a line of their own.
    _crash_at_trace_write(monkeypatch, 2)
    with pytest.raises(OSError, match="crashed"):
        run_benchmark(sphere_spec(cut, reps=5))
    assert all(len(line.split(",")) == 7 for line in runs_path.read_text().splitlines())
    monkeypatch.undo()
    run_benchmark(sphere_spec(cut, reps=5))
    assert runs_path.read_bytes() == (tmp_path / "fresh" / "runs.csv").read_bytes()


def _drop_last_point(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _swap_first_points(text):
    lines = text.splitlines(keepends=True)
    return "".join([lines[0], lines[2], lines[1]] + lines[3:])


@pytest.mark.parametrize(
    "damage",
    [
        None,  # the trace file is missing
        lambda text: "",
        lambda text: text.replace("eval,best", "evals,best"),
        _swap_first_points,
        _drop_last_point,  # parses, but disagrees with the row
    ],
    ids=["missing", "empty", "bad_header", "out_of_order", "disagrees"],
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


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="patches reach the workers only when they fork"
)


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


@pytest.mark.parametrize("recorded", [None, 1])
def test_resume_refuses_other_stream_version(tmp_path, recorded):
    # a directory written before stream versions existed: spec.json without
    # a version (or with an older one), plus results
    spec = small_spec(tmp_path)
    record = json.loads(spec.to_json())
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


def test_rse_targets_of_another_budget_are_refused(tmp_path):
    # an rse.csv without a spec.json, as ensure_rse_targets alone leaves it
    (tmp_path / "rse.csv").write_text("function,dim,budget,reps,value\nsphere2,2,50,5,1.5\n")
    with pytest.raises(ValueError, match="rse.csv 50, spec 60"):
        ensure_rse_targets(small_spec(tmp_path))


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
    recorded = BenchmarkSpec.from_json((tmp_path / "spec.json").read_text())
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


def test_workers_do_not_change_results(tmp_path):
    run_benchmark(small_spec(tmp_path / "serial"), workers=1)
    run_benchmark(small_spec(tmp_path / "pool"), workers=2)
    assert (
        (tmp_path / "serial" / "runs.csv").read_bytes()
        == (tmp_path / "pool" / "runs.csv").read_bytes()
    )


def test_serial_run_builds_each_function_once(tmp_path, monkeypatch):
    spec = replace(
        small_spec(tmp_path / "serial", reps=3),
        functions=[
            FunctionDescriptor(label="sphere2", kind="sphere", seed=3),
            FunctionDescriptor(
                label="hybrid", composition=[ComponentDescriptor("sphere"), ComponentDescriptor("rastrigin")], seed=4
            ),
        ],
        dims=[2, 3],
    )
    ensure_rse_targets(spec)  # builds every cell once for its target
    real, built = harness.make_test_function, []

    def counting_build(desc, seed=None, dim=None):
        built.append((desc.label, dim))
        return real(desc, seed=seed, dim=dim)

    monkeypatch.setattr(harness, "make_test_function", counting_build)
    run_benchmark(spec)
    monkeypatch.undo()
    assert sorted(built) == [("hybrid", 2), ("hybrid", 3), ("sphere2", 2), ("sphere2", 3)]
    run_benchmark(replace(spec, output_dir=str(tmp_path / "pool")), workers=2)
    assert _results(tmp_path / "serial") == _results(tmp_path / "pool")


@fork_only
def test_pool_builds_once_per_task(tmp_path, monkeypatch):
    spec = small_spec(tmp_path / "out", reps=5)
    ensure_rse_targets(spec)  # builds the cell once for its target
    builds, real = tmp_path / "builds", harness.make_test_function
    builds.mkdir()

    def counting_build(desc, seed=None, dim=None):
        os.close(tempfile.mkstemp(dir=builds)[0])
        return real(desc, seed=seed, dim=dim)

    monkeypatch.setattr(harness, "make_test_function", counting_build)
    run_benchmark(spec, workers=2)
    assert len(list(builds.iterdir())) == 3  # 10 runs in tasks of 4, 4 and 2


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
    files = [out / name for name in ("spec.json", "rse.csv", "runs.csv")]

    def stamps():
        return [(p.stat().st_ino, p.stat().st_mtime_ns) for p in files]

    before = stamps()
    time.sleep(0.01)
    run_benchmark(small_spec(out))
    assert stamps() == before


def test_seeds_differ_across_reps(tmp_path):
    records = run_benchmark(small_spec(tmp_path / "out"))
    de_seeds = [r.seed for r in records if r.algorithm == "de_small"]
    assert len(set(de_seeds)) == len(de_seeds)


def test_summarize_outputs(tmp_path):
    out = tmp_path / "out"
    run_benchmark(small_spec(out))
    result = summarize(out)
    assert len(result.ert_rows) == 2  # algorithms x functions x dims
    assert (out / "ert.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "bnfv" / "sphere2__d2__de_small.csv").exists()
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


def test_summarize_needs_records(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "spec.json").write_text(small_spec(out).to_json())
    with pytest.raises(ValueError):
        summarize(out)


# --- summary table construction ---------------------------------------------


def _ert(value, lower_bound=False):
    rate = 0.0 if lower_bound else 1.0
    return ErtResult(value, lower_bound, rate, 0 if lower_bound else 5, 5)


def test_summary_rows_dominant_algorithm_p_value():
    labels = [f"f{i}" for i in range(6)]
    cells = {}
    for i, label in enumerate(labels):
        cells[("a", label, 30)] = _ert(100.0 + i)
        cells[("b", label, 30)] = _ert(500.0 + i)
    rows = build_summary_rows(
        cells, ["a", "b"], labels, {l: "cat" for l in labels}, [30], ["cat"]
    )
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
    rows = build_summary_rows(cells, ["a", "b"], labels, {l: "cat" for l in labels}, [30], ["cat"])
    b_row = next(r for r in rows if r["algorithm"] == "b")
    assert b_row["flag"] == ">="
    assert next(r for r in rows if r["algorithm"] == "a")["flag"] == ""


def test_summary_rows_overall_category():
    labels = ["f0", "f1"]
    cat_of = {"f0": "easy", "f1": "hard"}
    cells = {
        ("a", "f0", 30): _ert(10.0),
        ("a", "f1", 30): _ert(20.0),
        ("b", "f0", 30): _ert(15.0),
        ("b", "f1", 30): _ert(25.0),
    }
    rows = build_summary_rows(cells, ["a", "b"], labels, cat_of, [30], ["easy", "hard"])
    categories = {r["category"] for r in rows}
    assert categories == {"easy", "hard", "overall"}


def test_summary_rows_skip_incomplete_cells():
    labels = ["f0", "f1"]
    cells = {
        ("a", "f0", 30): _ert(10.0),
        ("a", "f1", 30): _ert(20.0),
        ("b", "f0", 30): _ert(15.0),  # b is missing f1
    }
    rows = build_summary_rows(cells, ["a", "b"], labels, {l: "c" for l in labels}, [30], ["c"])
    assert [r["algorithm"] for r in rows] == ["a"]
