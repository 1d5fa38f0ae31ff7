import json
import shutil

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


def test_run_command_on_a_descriptor_of_its_seed_does_not_start_on_the_optimum(tmp_path):
    # The default --seed 0 meets the descriptor's seed 0; before stream version 4 each run printed best_fitness=0.0.
    for kind, algo, dim, budget in (("rastrigin", "de", 10, 1000), ("sphere", "de", 5, 200), ("sphere", "sqg", 5, 200)):
        desc_path = tmp_path / f"{kind}.json"
        desc_path.write_text(f'{{"label": "mine", "kind": "{kind}", "seed": 0}}')
        res = invoke("run", "--algo", algo, "--function", desc_path, "--dim", dim, "--budget", budget)
        assert res.exit_code == 0
        assert float(res.output.split("best_fitness=")[1].split()[0]) > 0.0


def test_run_command_out_below_a_file_exits_1_before_any_output(tmp_path):
    (tmp_path / "file").write_text("kept")
    out = tmp_path / "file" / "sub"
    args = ["run", "--algo", "de", "--function", "shifted_sphere", "--dim", "2", "--budget", "20", "--out", str(out)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert res.output.startswith("Error: ") and "Not a directory" in res.output
    assert (tmp_path / "file").read_text() == "kept"


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


def _replace_with_a_file(out):
    shutil.rmtree(out)
    out.write_text("")


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
        (_replace_with_a_file, [], "File exists"),
    ],
    ids=[
        "another_benchmark",
        "another_stream_version",
        "rse_of_another_budget",
        "row_over_budget",
        "spec_without_a_field",
        "spec_that_does_not_parse",
        "output_dir_is_a_file",
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


def test_summarize_exits_1_on_a_spec_it_cannot_read(tmp_path):
    (tmp_path / "spec.json").mkdir()
    res = CliRunner().invoke(main, ["summarize", "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert "Error: " in res.output and "Is a directory" in res.output


@pytest.mark.parametrize(
    "command",
    [
        ["run", "--algo", "de", "--function", "shifted_sphere", "--budget", "50"],
        ["bench", "--quiet", "--function", "shifted_sphere", "--dim", "2", "--budget", "50", "--reps", "1"],
        ["summarize"],
    ],
    ids=["run", "bench", "summarize"],
)
def test_an_out_that_is_a_file_is_a_usage_error(tmp_path, command):
    out = tmp_path / "results"
    out.write_text("kept")
    res = CliRunner().invoke(main, [*command, "--out", str(out)])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert f"Invalid value for '--out': Directory '{out}' is a file" in res.output
    assert out.read_text() == "kept"


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
    assert res.output == f"function,dim,budget,reps,value\nshifted_sphere,3,20,10,{expected.value!r}\n"


def test_rse_command_prints_the_rse_csv_that_bench_writes(tmp_path):
    out = tmp_path / "results"
    cell = ["--function", "shifted_sphere", "--dim", "3", "--budget", "20", "--reps", "10", "--seed", "1"]
    assert CliRunner().invoke(main, ["bench", *cell, "--algo", "de", "--out", str(out), "--quiet"]).exit_code == 0
    res = CliRunner().invoke(main, ["rse", *cell])
    assert res.exit_code == 0
    assert res.output == (out / "rse.csv").read_text()


def test_wilcoxon_command(tmp_path):
    csv_path = tmp_path / "pairs.csv"
    rows = ["a,b"] + [f"{i + 1},{i}" for i in range(6)]
    for bom in ("", "\ufeff"):  # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
        csv_path.write_text(bom + "\n".join(rows) + "\n", encoding="utf-8")
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


def test_wilcoxon_command_refuses_a_directory(tmp_path):
    res = CliRunner().invoke(main, ["wilcoxon", str(tmp_path), "a", "b"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert f"File '{tmp_path}' is a directory" in res.output


def test_wilcoxon_command_refuses_a_file_that_is_not_utf8_naming_it(tmp_path):
    csv_path = tmp_path / "pairs.csv"
    csv_path.write_bytes(b"a,b\n1,2\n\xff,3\n")
    res = CliRunner().invoke(main, ["wilcoxon", str(csv_path), "a", "b"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not a traceback
    assert f"Error: {csv_path} is not UTF-8 text" in res.output


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
        ["run", "--algo", "de", "--function", "shifted_sphere", "--seed", "-1"],
    ],
    ids=["run-dim", "run-budget", "rse-reps", "run-seed"],
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
        ({"algorithms": [{"name": [1]}]}, "algorithm name [1] must be letters and digits"),
    ],
    ids=["fractional_budget_and_reps", "fractional_pop_size", "string_bool", "empty_functions", "list_name"],
)
def test_bench_refuses_a_config_value_of_another_json_type_and_writes_nothing(tmp_path, config, message):
    path, out = tmp_path / "c.json", tmp_path / "out"
    path.write_text(json.dumps({**config, "dims": [2], "output_dir": str(out)}))
    res = CliRunner().invoke(main, ["bench", "--quiet", "--config", str(path)])
    assert res.exit_code == 2
    assert f"cannot load {path}: " in res.output and message in res.output
    assert not out.exists() or not any(out.iterdir())


def test_bench_and_run_refuse_a_box_whose_width_overflows_and_write_nothing(tmp_path):
    wide = {"label": "wide", "kind": "sphere", "bounds": [-1e308, 1e308], "seed": 3}
    message = "wide: bounds (-1e+308, 1e+308): upper - lower must be finite per axis"
    out, config, function = tmp_path / "results", tmp_path / "c.json", tmp_path / "wide.json"
    config.write_text(json.dumps({**_config(out).to_dict(), "functions": [wide]}))
    function.write_text(json.dumps(wide))
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--quiet"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a ClickException, not numpy's OverflowError
    assert f"Error: {message}" in res.output
    assert not out.exists() or not any(out.iterdir())
    res = CliRunner().invoke(main, ["run", "--algo", "de", "--function", str(function), "--dim", "2",
                                    "--out", str(tmp_path / "traces")])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert "Error: " in res.output and message in res.output
    assert not (tmp_path / "traces").exists()


def test_bench_on_a_box_whose_values_overflow_exits_0_and_writes_nothing_to_stderr(tmp_path):
    # Every value is inf, and the steps between such points give inf - inf: no numpy warning may reach the user.
    wide = {"label": "wide", "kind": "sphere", "bounds": [-1e200, 1e200], "seed": 3}
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"functions": [wide], "dims": [5], "budget": 300, "reps": 2}))
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--out", str(tmp_path / "results"), "--quiet"])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    assert "8 runs recorded" in res.stdout


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
