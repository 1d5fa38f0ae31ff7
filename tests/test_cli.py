import json

import pytest
from click.testing import CliRunner

from sqgde.cli import main
from sqgde.core import derive_seed
from sqgde.harness import AlgorithmSpec, BenchmarkSpec
from sqgde.algos import DEConfig, SQGConfig
from sqgde.metrics import estimate_rse_target
from sqgde.testfuncs import FunctionDescriptor, make_test_function, suite_by_label


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


def _config(out, reps=2):
    spec = BenchmarkSpec(
        algorithms=[
            AlgorithmSpec("de_small", DEConfig("rand1exp", pop_size=10)),
            AlgorithmSpec("sqg_small", SQGConfig(r=2, warm_start_samples=10)),
        ],
        functions=[
            FunctionDescriptor(label="s2", kind="sphere", seed=3),
            FunctionDescriptor(label="r2", kind="rastrigin", seed=4),
        ],
        dims=[2],
        budget=60,
        reps=reps,
        master_seed=11,
        output_dir=str(out),
    )
    return spec


def test_run_command(tmp_path):
    res = invoke(
        "run", "--algo", "sqg", "--function", "shifted_sphere",
        "--dim", 5, "--budget", 150, "--seed", 3, "--out", tmp_path,
    )
    assert res.exit_code == 0
    assert "evals_used=150" in res.output
    assert (tmp_path / "sqg__shifted_sphere__d5__s3.csv").exists()


def test_run_command_accepts_descriptor_file(tmp_path):
    desc_path = tmp_path / "fn.json"
    desc_path.write_text(json.dumps(FunctionDescriptor(label="mine", kind="rastrigin", seed=6).to_dict()))
    res = invoke("run", "--algo", "de", "--function", desc_path, "--dim", 4, "--budget", 50, "--seed", 1)
    assert res.exit_code == 0
    assert "function=mine" in res.output


def test_run_command_rejects_unknown_algorithm_as_usage_error():
    res = CliRunner().invoke(main, ["run", "--algo", "nope", "--function", "shifted_sphere"])
    assert res.exit_code == 2
    assert "Traceback" not in res.output
    assert "Invalid value for '--algo'" in res.output
    assert all(repr(name) in res.output for name in ("de", "de2", "sqg", "sqgde"))


def test_run_command_rejects_unknown_function():
    res = CliRunner().invoke(main, ["run", "--algo", "de", "--function", "no_such_fn"])
    assert res.exit_code != 0
    assert "unknown function" in res.output


def test_bench_and_summarize_commands(tmp_path):
    out = tmp_path / "results"
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(out).to_dict()))
    res = invoke("bench", "--config", config, "--quiet")
    assert res.exit_code == 0
    assert "8 runs recorded" in res.output
    assert (out / "runs.csv").exists()

    res = invoke("summarize", "--out", out)
    assert res.exit_code == 0
    assert "ert.csv: 4 rows" in res.output
    assert (out / "summary.csv").exists()


def test_bench_overrides_restrict_matrix(tmp_path):
    out = tmp_path / "results"
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(out).to_dict()))
    res = invoke(
        "bench", "--config", config, "--quiet",
        "--algo", "de_small", "--function", "s2", "--reps", 1,
        "--out", tmp_path / "other",
    )
    assert res.exit_code == 0
    assert "1 runs recorded" in res.output
    assert (tmp_path / "other" / "runs.csv").exists()


def test_bench_rejects_unknown_algo(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(tmp_path / "results").to_dict()))
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--algo", "unknown"])
    assert res.exit_code != 0


def test_bench_refuses_repeated_dims(tmp_path):
    out = tmp_path / "results"
    args = ["--algo", "de", "--function", "shifted_sphere", "--budget", "200", "--reps", "2", "--seed", "7"]
    res = CliRunner().invoke(main, ["bench", *args, "--dim", "3", "--dim", "3", "--out", str(out), "--quiet"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert "dims must be unique" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "group, key, value",
    [
        ("functions", "label", "a,b"),
        ("functions", "label", "../../escaped"),
        ("functions", "label", 5),
        ("functions", "label", "s__2"),
        ("algorithms", "name", "de__small"),
        ("functions", "category", "easy,hard"),  # an unquoted comma splits the summary.csv row
        ("functions", "category", "overall"),  # the name of summary.csv's group of all functions
    ],
    ids=["comma", "path", "number", "label_double_underscore", "name_double_underscore", "category_comma", "overall"],
)
def test_bench_refuses_names_the_result_files_cannot_hold(tmp_path, group, key, value):
    out = tmp_path / "results"
    record = _config(out).to_dict()
    record[group][0][key] = value
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(record))
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--quiet"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    what = {"label": "function label", "name": "algorithm name", "category": "function category"}[key]
    assert f"{what} {value!r}" in res.output
    assert not out.exists()


def _record_stream_version(out, version):
    record = json.loads((out / "spec.json").read_text())
    (out / "spec.json").write_text(json.dumps({**record, "stream_version": version}))


def _drop_spec_budget(out):
    record = json.loads((out / "spec.json").read_text())
    del record["budget"]
    (out / "spec.json").write_text(json.dumps(record))


def _cut_spec(out):
    (out / "spec.json").write_text("")


def _over_budget_row(out):
    lines = (out / "runs.csv").read_text().splitlines(keepends=True)
    cols = lines[1].split(",")
    cols[5] = "61"  # over the 60-evaluation budget
    (out / "runs.csv").write_text("".join(lines[:1] + [",".join(cols)] + lines[2:]))


@pytest.mark.parametrize(
    "damage, args, message",
    [
        (lambda out: None, ["--budget", 80], "records another benchmark (budget 60 != 80)"),
        (lambda out: _record_stream_version(out, 2), [], "records RNG stream version 2"),
        (lambda out: (out / "spec.json").unlink(), ["--budget", 80], "rse.csv 60, spec 80"),
        (_over_budget_row, [], "used 61 evaluations, over the budget 60"),
        (_drop_spec_budget, [], "spec.json is not a readable spec.json (no budget)"),
        (_cut_spec, [], "spec.json is not a readable spec.json (Expecting value"),
    ],
    ids=[
        "another_benchmark",
        "another_stream_version",
        "rse_of_another_budget",
        "row_over_budget",
        "spec_without_a_field",
        "spec_that_does_not_parse",
    ],
)
def test_bench_refusals_exit_1_with_their_message(tmp_path, damage, args, message):
    out = tmp_path / "results"
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(out).to_dict()))
    assert invoke("bench", "--config", config, "--quiet").exit_code == 0
    damage(out)
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--quiet", *map(str, args)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert "Error: " in res.output and message in res.output


def test_summarize_without_spec_exits_1_with_its_message(tmp_path):
    res = CliRunner().invoke(main, ["summarize", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: " in res.output and "spec.json" in res.output


@pytest.mark.parametrize(
    "damage, message",
    [(_drop_spec_budget, "(no budget)"), (_cut_spec, "(Expecting value")],
    ids=["spec_without_a_field", "spec_that_does_not_parse"],
)
def test_summarize_refuses_a_malformed_spec_naming_it(tmp_path, damage, message):
    out = tmp_path / "results"
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(out).to_dict()))
    assert invoke("bench", "--config", config, "--quiet").exit_code == 0
    damage(out)
    res = CliRunner().invoke(main, ["summarize", "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"Error: {out / 'spec.json'} is not a readable spec.json {message}" in res.output


def test_bench_logs_one_line_per_target_and_per_run_unless_quiet(tmp_path):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(tmp_path / "loud").to_dict()))
    lines = invoke("bench", "--config", config).output.splitlines()
    assert sorted(line.split()[1] for line in lines if line.startswith("rse ")) == ["r2", "s2"]
    assert len([line for line in lines if line.startswith("run ")]) == 8  # 2 algorithms x 2 functions x 2 reps
    quiet = invoke("bench", "--config", config, "--quiet", "--out", tmp_path / "quiet").output
    assert not [line for line in quiet.splitlines() if line.startswith(("rse ", "run "))]


def test_rse_command_matches_direct_estimate():
    res = invoke("rse", "--function", "shifted_sphere", "--dim", 3, "--budget", 20, "--reps", 10, "--seed", 1)
    assert res.exit_code == 0
    fn = make_test_function(suite_by_label()["shifted_sphere"], dim=3)
    expected = estimate_rse_target(fn, 20, 10, derive_seed(1, "rse", "shifted_sphere", 3))
    assert repr(expected.value) in res.output


def test_wilcoxon_command(tmp_path):
    csv_path = tmp_path / "pairs.csv"
    rows = ["a,b"] + [f"{i + 1},{i}" for i in range(6)]
    csv_path.write_text("\n".join(rows) + "\n")
    res = invoke("wilcoxon", csv_path, "a", "b")
    assert res.exit_code == 0
    assert "p_value=0.03125" in res.output
    assert "significant=True" in res.output


@pytest.mark.parametrize("n", [10, 30])
def test_wilcoxon_command_refuses_nan(tmp_path, n):
    csv_path = tmp_path / "pairs.csv"
    rows = ["a,b"] + [f"{i + 1},{i}" for i in range(n - 1)] + ["nan,0"]
    csv_path.write_text("\n".join(rows) + "\n")
    res = CliRunner().invoke(main, ["wilcoxon", str(csv_path), "a", "b"])
    assert res.exit_code == 1
    assert "Error: paired samples must be finite" in res.output


@pytest.mark.parametrize(
    "row, message",
    [("3,x", "line 3, column 'b': 'x' is not a number"), ("3", "line 3, column 'b': None is not a number")],
    ids=["not_a_number", "short_row"],
)
def test_wilcoxon_command_names_a_bad_cell(tmp_path, row, message):
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text(f"a,b\n1,2\n{row}\n4,5\n")
    res = CliRunner().invoke(main, ["wilcoxon", str(csv_path), "a", "b"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert f"Error: {csv_path} {message}" in res.output


def test_wilcoxon_command_rejects_missing_column(tmp_path):
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_text("a,b\n1,2\n")
    res = CliRunner().invoke(main, ["wilcoxon", str(csv_path), "a", "missing"])
    assert res.exit_code != 0


@pytest.mark.parametrize("option", ["--workers", "--reps", "--budget", "--dim"])
def test_bench_rejects_non_positive_values_up_front(tmp_path, option):
    out = tmp_path / "results"
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(_config(out).to_dict()))
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--quiet", option, "0"])
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output
    assert "Traceback" not in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algo", "de", "--function", "shifted_sphere", "--dim", "0"],
        ["run", "--algo", "de", "--function", "shifted_sphere", "--budget", "-1"],
        ["rse", "--function", "shifted_sphere", "--reps", "0"],
    ],
    ids=["run-dim", "run-budget", "rse-reps"],
)
def test_run_and_rse_reject_non_positive_values_up_front(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert f"Invalid value for '{args[-2]}'" in res.output


@pytest.mark.parametrize(
    "command, text, message",
    [
        (["bench", "--quiet", "--config"], '{"budget": 50,', "Expecting"),
        (["bench", "--quiet", "--config"], '{"algorithms": [{"name": "x"}]}', "unknown algorithm preset 'x'"),
        (["run", "--algo", "de", "--function"], '{"label": "f",', "Expecting"),
        (["rse", "--function"], '{"label": "f",', "Expecting"),
        (["run", "--algo", "de", "--function"], '{"functions": []}', "it is a suite file"),
        (["bench", "--quiet", "--config"], '{"budgett": 50}', "unknown keys ['budgett']"),
        (["rse", "--function"], '{"label": "f", "kind": "sphere", "rotatd": true}', "unknown keys ['rotatd']"),
        (["run", "--algo", "de", "--function"], '{"label": "a,b", "kind": "sphere", "seed": 3}', "label 'a,b' must"),
        (["rse", "--function"], '{"label": "../../x", "kind": "sphere", "seed": 3}', "label '../../x' must"),
        (["run", "--algo", "de", "--function"], '{"label": 5, "kind": "sphere", "seed": 3}', "label 5 must"),
        (["rse", "--function"], '{"label": "f__g", "kind": "sphere", "seed": 3}', "label 'f__g' must"),
    ],
    ids=["bench_config_that_does_not_parse", "bench_config_unknown_preset", "run_function_that_does_not_parse",
         "rse_function_that_does_not_parse", "run_function_suite_file", "bench_config_unknown_key",
         "rse_function_unknown_key", "run_label_with_comma", "rse_label_with_path", "run_label_number",
         "rse_label_with_double_underscore"],
)
def test_a_json_file_that_does_not_load_is_a_usage_error_naming_it(tmp_path, command, text, message):
    path = tmp_path / "f.json"
    path.write_text(text)
    res = CliRunner().invoke(main, [*command, str(path)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert f"cannot load {path}: " in res.output and message in res.output


@pytest.mark.parametrize(
    "config, message",
    [
        ({"budget": 50.9, "reps": 1.5}, "budget must be a JSON int, got 50.9"),
        ({"algorithms": [{"name": "x", "kind": "de", "strategy": "rand1exp", "pop_size": 10.5}]}, "got 10.5"),
        ({"functions": [{"label": "f", "kind": "sphere", "noisy": "false", "seed": 3}]}, "got 'false'"),
        ({"functions": [], "budget": 10, "reps": 1}, "at least one function is required"),
    ],
    ids=["fractional_budget_and_reps", "fractional_pop_size", "string_bool", "empty_functions"],
)
def test_bench_refuses_a_config_value_of_another_json_type_and_writes_nothing(tmp_path, config, message):
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps({**config, "dims": [2], "output_dir": str(out)}))
    res = CliRunner().invoke(main, ["bench", "--quiet", "--config", str(path)])
    assert res.exit_code == 2
    assert f"cannot load {path}: " in res.output and message in res.output
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "args",
    [
        ["run", "--algo", "de", "--function", "shifted_rosenbrock", "--dim", "1"],
        ["rse", "--function", "shifted_rosenbrock", "--dim", "1"],
        ["rse", "--dim", "1"],
    ],
    ids=["run", "rse_function", "rse_suite"],
)
def test_a_function_that_cannot_build_at_dim_is_a_usage_error_naming_it(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert "shifted_rosenbrock: rosenbrock needs dim >= 2" in res.output
    assert "function,dim" not in res.output  # refused before any row is printed
