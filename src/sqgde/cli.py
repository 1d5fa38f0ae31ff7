"""Command line interface for runs, benchmarks, and result summaries."""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path

import click

from . import harness
from .core import derive_seed
from .harness import (
    ALGORITHM_PRESETS,
    BenchmarkSpec,
    algorithm_preset,
    default_benchmark_spec,
    execute_run,
)
from .metrics import estimate_rse_target
from .stats import wilcoxon_signed_rank
from .testfuncs import (
    FunctionDescriptor,
    default_suite,
    make_test_function,
    suite_by_label,
)


POSITIVE = click.IntRange(min=1)


@click.group()
def main():
    """Fixed-budget benchmarking of DE variants and quasi-gradient descent."""


def _resolve_function(label: str) -> FunctionDescriptor:
    table = suite_by_label()
    if label in table:
        return table[label]
    path = Path(label)
    if path.exists():
        payload = json.loads(path.read_text())
        if "functions" in payload:
            raise click.BadParameter(
                f"{label} is a suite file; pass a single function label or descriptor file"
            )
        return FunctionDescriptor.from_dict(payload)
    raise click.BadParameter(
        f"unknown function {label!r}; known labels: {', '.join(sorted(table))}"
    )


@main.command()
@click.option("--algo", required=True, help=f"One of {sorted(ALGORITHM_PRESETS)}.")
@click.option("--function", "function_label", required=True, help="Suite label or descriptor JSON path.")
@click.option("--dim", type=POSITIVE, default=30, show_default=True)
@click.option("--budget", type=POSITIVE, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None, help="Directory to write the trace file into.")
def run(algo, function_label, dim, budget, seed, out):
    """Run one algorithm once on one function and print the outcome."""
    spec = algorithm_preset(algo)
    desc = _resolve_function(function_label)
    fn = make_test_function(desc, dim=dim)
    trace = execute_run(spec, fn, budget, seed)
    click.echo(f"algorithm={spec.name} function={desc.label} dim={dim} seed={seed}")
    click.echo(f"evals_used={trace.final_evals} best_fitness={trace.final_best!r}")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{spec.name}__{desc.label}__d{dim}__s{seed}.csv"
        harness.write_trace(path, trace)
        click.echo(f"trace written to {path}")


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None, help="Benchmark spec JSON.")
@click.option("--out", default=None, help="Output directory (overrides the config).")
@click.option("--budget", type=POSITIVE, default=None)
@click.option("--reps", type=POSITIVE, default=None)
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--dim", "dims", type=POSITIVE, multiple=True, help="Restrict to these dimensions.")
@click.option("--algo", "algos", multiple=True, help="Restrict to these algorithms.")
@click.option("--function", "functions", multiple=True, help="Restrict to these function labels.")
@click.option("--workers", type=POSITIVE, default=1, show_default=True)
@click.option("--quiet", is_flag=True, help="Suppress per-run progress lines.")
def bench(config, out, budget, reps, seed, dims, algos, functions, workers, quiet):
    """Run a benchmark matrix; resumes an interrupted output directory."""
    if config:
        spec = BenchmarkSpec.from_json(Path(config).read_text())
    else:
        spec = default_benchmark_spec()
    changes = {}
    if out is not None:
        changes["output_dir"] = out
    if budget is not None:
        changes["budget"] = budget
    if reps is not None:
        changes["reps"] = reps
    if seed is not None:
        changes["master_seed"] = seed
    if dims:
        changes["dims"] = list(dims)
    if algos:
        known = {a.name: a for a in spec.algorithms}
        missing = [a for a in algos if a not in known]
        if missing:
            raise click.BadParameter(f"algorithms not in the spec: {missing}")
        changes["algorithms"] = [known[a] for a in algos]
    if functions:
        known_f = {f.label: f for f in spec.functions}
        missing = [f for f in functions if f not in known_f]
        if missing:
            raise click.BadParameter(f"functions not in the spec: {missing}")
        changes["functions"] = [known_f[f] for f in functions]
    if changes:
        spec = dataclasses.replace(spec, **changes)
    records = harness.run_benchmark(spec, workers=workers, progress=not quiet)
    click.echo(f"{len(records)} runs recorded under {spec.output_dir}")
    click.echo(f"next: sqgde summarize --out {spec.output_dir}")


@main.command()
@click.option("--function", "function_label", default=None, help="Single label; all suite functions if omitted.")
@click.option("--dim", type=POSITIVE, default=30, show_default=True)
@click.option("--budget", type=POSITIVE, default=1000, show_default=True)
@click.option("--reps", type=POSITIVE, default=100, show_default=True)
@click.option("--seed", type=int, default=12345, show_default=True, help="Master seed.")
def rse(function_label, dim, budget, reps, seed):
    """Print the uniform random-search target per function (sqgde bench stores them)."""
    descs = [_resolve_function(function_label)] if function_label else default_suite()
    click.echo(",".join(harness.RSE_COLUMNS))
    for desc in descs:
        fn = make_test_function(desc, dim=dim)
        target = estimate_rse_target(fn, budget, reps, derive_seed(seed, "rse", desc.label, dim))
        click.echo(f"{desc.label},{dim},{budget},{reps},{target.value!r}")


@main.command(name="summarize")
@click.option("--out", required=True, type=click.Path(exists=True), help="Benchmark output directory.")
def summarize_cmd(out):
    """Build ert.csv, summary.csv and convergence curves from recorded runs."""
    result = harness.summarize(out)
    click.echo(f"ert.csv: {len(result.ert_rows)} rows")
    click.echo(f"summary.csv: {len(result.summary_rows)} rows")
    for row in result.summary_rows:
        p = row["p_vs_best"]
        p_text = "" if p == "" else f" p_vs_best={p:.4g}"
        click.echo(
            f"{row['category']} d={row['dim']} {row['algorithm']}: "
            f"mean_ert={row['flag']}{row['mean_ert']:.6g}{p_text}"
        )


@main.command()
@click.argument("csv_path", type=click.Path(exists=True))
@click.argument("col_a")
@click.argument("col_b")
def wilcoxon(csv_path, col_a, col_b):
    """Paired signed-rank test between two numeric CSV columns."""
    a, b = [], []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or col_a not in reader.fieldnames or col_b not in reader.fieldnames:
            raise click.BadParameter(f"columns {col_a!r}, {col_b!r} not both present in {csv_path}")
        for row in reader:
            for col, values in ((col_a, a), (col_b, b)):
                try:
                    values.append(float(row[col]))
                except (TypeError, ValueError) as err:  # a short row gives None
                    raise click.ClickException(
                        f"{csv_path} line {reader.line_num}, column {col!r}: {row[col]!r} is not a number"
                    ) from err
    try:
        res = wilcoxon_signed_rank(a, b)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    click.echo(f"n_effective={res.n_effective} w_plus={res.w_plus!r}")
    click.echo(f"p_value={res.p_value!r} method={res.method} significant={res.significant}")


if __name__ == "__main__":
    main()
