"""Command line interface for runs, benchmarks, and result summaries."""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import click

from . import harness
from .harness import ALGORITHM_PRESETS, BenchmarkSpec, default_benchmark_spec, execute_run
from .stats import wilcoxon_signed_rank
from .testfuncs import FunctionDescriptor, make_test_function, suite_by_label


POSITIVE = click.IntRange(min=1)


@click.group()
def main():
    """Fixed-budget benchmarking of DE variants and quasi-gradient descent."""


def _load(path, from_dict):
    """``from_dict`` of the JSON file a user named; a file that does not load is a usage error naming it."""
    try:
        return from_dict(json.loads(Path(path).read_text()))
    except (OSError, ValueError) as err:
        raise click.BadParameter(f"cannot load {path}: {err}") from err


def _function(label: str, dim: int):
    """The suite function or descriptor file ``label`` built at ``dim``; either failing is a usage error naming it."""
    table = suite_by_label()
    if label in table:
        desc = table[label]
    elif Path(label).exists():
        desc = _load(label, FunctionDescriptor.from_dict)
    else:
        raise click.BadParameter(f"unknown function {label!r}; known labels: {', '.join(sorted(table))}")
    try:
        return make_test_function(desc, dim=dim)
    except ValueError as err:
        raise click.BadParameter(str(err)) from err


@main.command()
@click.option("--algo", required=True, type=click.Choice(sorted(ALGORITHM_PRESETS)))
@click.option("--function", "function_label", required=True, help="Suite label or descriptor JSON path.")
@click.option("--dim", type=POSITIVE, default=30, show_default=True)
@click.option("--budget", type=POSITIVE, default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Directory to write the trace file into.")
def run(algo, function_label, dim, budget, seed, out):
    """Run one algorithm once on one function and print the outcome."""
    spec = ALGORITHM_PRESETS[algo]
    fn = _function(function_label, dim)
    path = out and Path(out) / f"{spec.name}__{fn.label}__d{dim}__s{seed}.csv"
    try:
        if path:  # made before the run, so that a refusal comes before any output
            path.parent.mkdir(parents=True, exist_ok=True)
        trace = execute_run(spec, fn, budget, seed)
        click.echo(f"algorithm={spec.name} function={fn.label} dim={dim} seed={seed}")
        click.echo(f"evals_used={trace.final_evals} best_fitness={trace.final_best!r}")
        if path:
            harness.write_trace(path, trace)
            click.echo(f"trace written to {path}")
    except OSError as err:  # e.g. an --out below a file
        raise click.ClickException(str(err)) from err


@main.command()
@click.option("--config", type=click.Path(exists=True), default=None, help="Benchmark spec JSON.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory (overrides the config).")
@click.option("--budget", type=POSITIVE, default=None)
@click.option("--reps", type=POSITIVE, default=None)
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--dim", "dims", type=POSITIVE, multiple=True, help="Run these dimensions instead of the spec's.")
@click.option("--algo", "algos", multiple=True, help="Restrict to these algorithms.")
@click.option("--function", "functions", multiple=True, help="Restrict to these function labels.")
@click.option("--workers", type=POSITIVE, default=1, show_default=True)
@click.option("--quiet", is_flag=True, help="Suppress the progress lines, one per target and one per run.")
def bench(config, out, budget, reps, seed, dims, algos, functions, workers, quiet):
    """Run a benchmark matrix; resumes an interrupted output directory."""
    spec = _load(config, BenchmarkSpec.from_dict) if config else default_benchmark_spec()
    given = dict(output_dir=out, budget=budget, reps=reps, master_seed=seed, dims=list(dims) or None)
    changes = {name: value for name, value in given.items() if value is not None}
    for name, picked, key in (("algorithms", algos, "name"), ("functions", functions, "label")):
        known = {getattr(entry, key): entry for entry in getattr(spec, name)}
        if missing := [p for p in picked if p not in known]:
            raise click.BadParameter(f"{name} not in the spec: {missing}")
        if picked:
            changes[name] = [known[p] for p in picked]
    try:
        spec = dataclasses.replace(spec, **changes)
    except ValueError as err:  # e.g. a repeated --dim
        raise click.BadParameter(str(err)) from err

    import logging  # as in the harness, only a benchmark run loads it

    # The harness logs one INFO line per target and per run.
    log, handler = logging.getLogger("sqgde.harness"), logging.StreamHandler(sys.stdout)
    level = log.level
    if not quiet:
        log.addHandler(handler)
        log.setLevel(logging.INFO)
    try:
        records = harness.run_benchmark(spec, workers=workers)
    except (OSError, ValueError, RuntimeError) as err:  # e.g. another benchmark's directory, or a file
        raise click.ClickException(str(err)) from err
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    click.echo(f"{len(records)} runs recorded under {spec.output_dir}")
    click.echo(f"next: sqgde summarize --out {spec.output_dir}")


@main.command()
@click.option("--function", "function_label", default=None, help="Single label; all suite functions if omitted.")
@click.option("--dim", type=POSITIVE, default=30, show_default=True)
@click.option("--budget", type=POSITIVE, default=BenchmarkSpec.budget, show_default=True)
@click.option("--reps", type=POSITIVE, default=BenchmarkSpec.reps, show_default=True)
@click.option("--seed", type=int, default=BenchmarkSpec.master_seed, show_default=True, help="Master seed.")
def rse(function_label, dim, budget, reps, seed):
    """Print the uniform random-search target per function (sqgde bench stores them)."""
    fns = [_function(label, dim) for label in ([function_label] if function_label else suite_by_label())]
    click.echo(harness._csv_line(harness.RSE_COLUMNS), nl=False)
    for fn in fns:
        click.echo(harness._csv_line(harness.rse_target(fn, budget, reps, seed)), nl=False)


@main.command(name="summarize")
@click.option("--out", required=True, type=click.Path(exists=True, file_okay=False), help="Benchmark output directory.")
def summarize_cmd(out):
    """Build ert.csv, summary.csv and convergence curves from recorded runs."""
    try:
        result = harness.summarize(out)
    except (OSError, ValueError, RuntimeError) as err:  # e.g. no spec.json
        raise click.ClickException(str(err)) from err
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
@click.argument("csv_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("col_a")
@click.argument("col_b")
def wilcoxon(csv_path, col_a, col_b):
    """Paired signed-rank test between two numeric CSV columns."""
    a, b = [], []
    try:
        with open(csv_path, newline="", encoding="utf-8-sig") as fh:  # a BOM is not part of the first column name
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
    except UnicodeDecodeError as err:
        raise click.ClickException(f"{csv_path} is not UTF-8 text ({err})") from err
    try:
        res = wilcoxon_signed_rank(a, b)
    except ValueError as err:
        raise click.ClickException(str(err)) from err
    click.echo(f"n_effective={res.n_effective} w_plus={res.w_plus!r}")
    click.echo(f"p_value={res.p_value!r} method={res.method} significant={res.significant}")


if __name__ == "__main__":
    main()
