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


def test_run_command_rejects_unknown_function():
    res = CliRunner().invoke(main, ["run", "--algo", "de", "--function", "no_such_fn"])
    assert res.exit_code != 0
    assert "unknown function" in res.output


def test_bench_and_summarize_commands(tmp_path):
    out = tmp_path / "results"
    config = tmp_path / "spec.json"
    config.write_text(_config(out).to_json())
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
    config.write_text(_config(out).to_json())
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
    config.write_text(_config(tmp_path / "results").to_json())
    res = CliRunner().invoke(main, ["bench", "--config", str(config), "--algo", "unknown"])
    assert res.exit_code != 0


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
    config.write_text(_config(out).to_json())
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
