"""Output checks on a finished results directory, and its result digest.

The checks read the files the harness documents (``runs.csv``,
``rse.csv``, ``traces/``, ``ert.csv``) and compare them with the matrix the
workload asked for. A run counts as failed when its row is missing, when it
used another number of evaluations than the budget, or when its trace is
missing or invalid. Everything else that is wrong (RSE rows, ERT rows,
extra rows) is a problem that makes the result incorrect without being
charged to a run.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

RUNS_HEADER = ["algorithm", "function", "dim", "rep", "seed", "evals_used", "best_fitness"]
RSE_HEADER = ["function", "dim", "budget", "reps", "value"]
TRACE_HEADER = ["eval", "best"]
ERT_HEADER = ["algorithm", "function", "dim", "ert", "lower_bound", "success_rate"]


@dataclass
class CheckResult:
    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    digest: str = ""

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def digest(out_dir: Path) -> str:
    """sha256 over runs.csv then rse.csv: equal digests mean bit-identical results."""
    h = hashlib.sha256()
    for name in ("runs.csv", "rse.csv"):
        path = out_dir / name
        if path.exists():
            h.update(path.read_bytes())
    return h.hexdigest()


def _read_rows(path: Path, header: list[str]) -> list[list[str]] | None:
    if not path.exists():
        return None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            return None
        return list(reader)


def _trace_problem(path: Path, budget: int, best: float) -> str | None:
    rows = _read_rows(path, TRACE_HEADER)
    if not rows:
        return "missing, empty or with a bad header"
    last_e, last_f = 0, math.inf
    for row in rows:
        try:
            e, f = int(row[0]), float(row[1])
        except (ValueError, IndexError):
            return f"malformed row {row}"
        if not last_e < e <= budget:
            return f"evaluation index {e} out of order or over budget {budget}"
        if not f <= last_f:
            return f"best-so-far rose from {last_f} to {f}"
        last_e, last_f = e, f
    if last_e != budget:
        return f"ends at evaluation {last_e}, not at the budget {budget}"
    if last_f != best:
        return f"ends at {last_f}, but runs.csv says {best}"
    return None


def check_results(out_dir: Path, workload: Workload, ert_rows: list[dict]) -> CheckResult:
    """Check one results directory, and the ERT rows ``summarize`` returned for it."""
    result = CheckResult(attempted=workload.runs)
    expected = workload.run_keys()

    rows = _read_rows(out_dir / "runs.csv", RUNS_HEADER)
    if rows is None:
        result.failed = workload.runs
        result.problems.append("runs.csv is missing or has a bad header")
        return result
    found: dict[tuple, list[str]] = {}
    for row in rows:
        try:
            key = (row[0], row[1], int(row[2]), int(row[3]))
            int(row[5]), float(row[6])
        except (ValueError, IndexError):
            result.problems.append(f"runs.csv: malformed row {row}")
            continue
        if key in found:
            result.problems.append(f"runs.csv: duplicate row for {key}")
        found[key] = row
    extra = set(found) - set(expected)
    if extra:
        result.problems.append(f"runs.csv: {len(extra)} rows outside the matrix")

    for key in expected:
        row = found.get(key)
        if row is None:
            result.failed += 1
            result.problems.append(f"run {key}: no row in runs.csv")
            continue
        evals_used, best = int(row[5]), float(row[6])
        if evals_used != workload.budget:
            result.failed += 1
            result.problems.append(f"run {key}: used {evals_used} evaluations, budget {workload.budget}")
            continue
        algo, label, dim, rep = key
        trace = out_dir / f"traces/{algo}__{label}__d{dim}__r{rep:04d}.csv"
        problem = _trace_problem(trace, workload.budget, best)
        if problem is not None:
            result.failed += 1
            result.problems.append(f"run {key}: trace {problem}")

    rse = _read_rows(out_dir / "rse.csv", RSE_HEADER) or []
    rse_keys = sorted((r[0], int(r[1])) for r in rse)
    if rse_keys != sorted((label, workload.dim) for label in workload.functions):
        result.problems.append(f"rse.csv: rows {rse_keys} do not match the matrix")
    for label, dim, budget, reps, value in rse:
        if (int(budget), int(reps)) != (workload.budget, workload.reps) or not math.isfinite(float(value)):
            result.problems.append(f"rse.csv: bad row for {label} d={dim}")

    ert_file = _read_rows(out_dir / "ert.csv", ERT_HEADER)
    if len(ert_rows) != workload.cells or ert_file is None or len(ert_file) != workload.cells:
        result.problems.append(f"ert: expected {workload.cells} cells")
    if not all(math.isfinite(r["ert"]) and r["ert"] >= 1.0 for r in ert_rows):
        result.problems.append("ert: a value is not finite or below one evaluation")

    result.digest = digest(out_dir)
    return result
