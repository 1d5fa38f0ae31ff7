"""Benchmark harness: run an algorithm/function/dimension/repetition matrix
under a fixed evaluation budget and summarize the results.

Each run's seed is derived deterministically from the master seed and the
run key, so the full matrix is reproducible from the spec alone, results
are independent of execution order and worker count, and an interrupted
directory can be resumed (completed records are skipped by key).

The work is grouped by (function, dim) cell: a cell's random-search target
if it lacks one, then its missing runs. One process does each cell on one
build of its function; a process pool cuts each cell's runs into tasks of
at most four, the first of which estimates the target first, builds once
per task, keeps two tasks per worker in flight and starts no more workers
than there are tasks. The parent writes every file, rse.csv once per call,
and locks the output directory while it works.

Artifacts under the output directory:

* ``spec.json``      the benchmark spec that produced everything below, plus
                     the RNG ``stream_version`` of the code that ran it
* ``rse.csv``        random-search reference targets per function and dim
* ``runs.csv``       one row per run (sorted by key, full float precision)
* ``traces/``        per-run best-so-far traces, ``eval,best`` per line
* ``ert.csv``        expected running times (written by ``summarize``)
* ``summary.csv``    per-category means and tests vs the best algorithm
* ``bnfv.csv``       mean/median normalized convergence curves of every cell
                     on one grid, ``normalized`` false where a zero target
                     leaves the raw best-so-far (written by ``summarize``)
"""

from __future__ import annotations

import fcntl
import json
import os
import re
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import groupby, islice, product
from pathlib import Path

import numpy as np

from .algos import DEConfig, SQGConfig, run_de, run_sqg
from .core import STREAM_VERSION, RunTrace, derive_seed, record_dict
from .core import json_fields, json_value, refuse_unknown_keys
from .metrics import (
    ErtResult,
    NormalizationUndefined,
    RseTarget,
    best_on_grid,
    bnfv_on_grid,
    expected_running_time,
    estimate_rse_target,
)
from .stats import wilcoxon_signed_rank
from .testfuncs import FunctionDescriptor, default_suite, make_test_function, resolve_descriptor

__all__ = [
    "AlgorithmSpec",
    "ALGORITHM_PRESETS",
    "algorithm_preset",
    "BenchmarkSpec",
    "default_benchmark_spec",
    "RunRecord",
    "execute_run",
    "run_benchmark",
    "ensure_rse_targets",
    "rse_target",
    "write_trace",
    "summarize",
    "SummaryResult",
    "BNFV_GRID_STEP",
]

ERT_COLUMNS = ["algorithm", "function", "dim", "ert", "lower_bound", "success_rate"]
SUMMARY_COLUMNS = ["category", "dim", "algorithm", "mean_ert", "flag", "p_vs_best"]
RSE_COLUMNS = ["function", "dim", "budget", "reps", "value"]
TRACE_COLUMNS = ["eval", "best"]
BNFV_COLUMNS = ["algorithm", "function", "dim", "normalized", "eval", "mean", "median"]
BNFV_GRID_STEP = 10
OVERALL_CATEGORY = "overall"
# Runs per pool task: one build serves them all, and a task is small enough
# that an error in the parent cancels most of the queued work.
_TASK_RUNS = 4
# The fields every spec.json records; a file without one is refused.
_SPEC_FIELDS = ("algorithms", "functions", "dims", "budget", "reps", "master_seed")
# An algorithm name, function label or function category: each becomes an
# unquoted CSV field, and a name or label a part of a trace file name, whose
# parts "__" separates.
_NAME = re.compile(r"[A-Za-z0-9]+(?:[._-][A-Za-z0-9]+)*")


def _check_names(what: str, values) -> None:
    """Refuse, naming it, a value that cannot be a CSV field and a part of a file name."""
    if bad := [v for v in values if not (isinstance(v, str) and _NAME.fullmatch(v))]:
        raise ValueError(f"{what} {bad[0]!r} must be letters and digits joined by single '.', '_' or '-'")


# Each algorithm kind spec.json names: its config type and its run function.
_KINDS = {"de": (DEConfig, run_de), "sqg": (SQGConfig, run_sqg)}


def _kind_of(config) -> str:
    for kind, (config_type, _) in _KINDS.items():
        if isinstance(config, config_type):
            return kind
    raise TypeError(f"unsupported algorithm config {type(config).__name__}")


@dataclass(frozen=True)
class AlgorithmSpec:
    """A named optimizer: the config of one of the ``_KINDS``."""

    name: str
    config: DEConfig | SQGConfig

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": _kind_of(self.config), **asdict(self.config)}

    @classmethod
    def from_dict(cls, d: dict) -> "AlgorithmSpec":
        """Preset ``name`` with ``d``'s parameters, or a ``kind``'s config of them; each has its field's JSON type."""
        name, kind = d["name"], d.get("kind")
        if kind is not None and kind not in _KINDS:
            raise ValueError(f"unknown algorithm kind {kind!r}")
        preset = algorithm_preset(name).config if kind is None else None
        types = {f.name: f.type for f in fields(preset or _KINDS[kind][0])}
        refuse_unknown_keys(d, ["name", "kind", *types], f"algorithm {name!r}")
        params = json_fields(d, types, f"algorithm {name!r}")
        return cls(name, replace(preset, **params) if preset else _KINDS[kind][0](**params))


# The four protocol optimizers: classic DE, best-of-two-differences DE,
# the quasi-gradient DE hybrid, and standalone quasi-gradient descent.
ALGORITHM_PRESETS: dict[str, AlgorithmSpec] = {
    "de": AlgorithmSpec("de", DEConfig("rand1exp", F=0.8, CR=0.8, pop_size=100)),
    "de2": AlgorithmSpec("de2", DEConfig("best2bin", F=0.8, CR=0.8, pop_size=100)),
    "sqg": AlgorithmSpec("sqg", SQGConfig(r=5, delta=1e-3, step0=0.015, decay=0.96, warm_start_samples=100)),
    "sqgde": AlgorithmSpec("sqgde", DEConfig("sqgbin", F=0.8, CR=0.8, w=5, pop_size=100)),
}


def algorithm_preset(name: str) -> AlgorithmSpec:
    if name not in ALGORITHM_PRESETS:
        raise ValueError(
            f"unknown algorithm preset {name!r}; known: {', '.join(ALGORITHM_PRESETS)}, or give 'kind' plus parameters"
        )
    return ALGORITHM_PRESETS[name]


@dataclass
class BenchmarkSpec:
    """Everything needed to reproduce a benchmark matrix; the defaults are the protocol's."""

    algorithms: list[AlgorithmSpec]
    functions: list[FunctionDescriptor]
    dims: list[int] = field(default_factory=lambda: [30, 50])
    budget: int = 1000
    reps: int = 100
    master_seed: int = 12345
    output_dir: str = "results"

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if not self.functions:
            raise ValueError("at least one function is required")
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("dims must be positive")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError("dims must be unique")
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        for what, names in (
            ("algorithm name", [a.name for a in self.algorithms]),
            ("function label", [f.label for f in self.functions]),
        ):
            _check_names(what, names)
            if len(set(names)) != len(names):
                raise ValueError(f"{what}s must be unique")
        categories = [f.category for f in self.functions]
        _check_names("function category", categories)
        if OVERALL_CATEGORY in categories:
            raise ValueError(f"function category {OVERALL_CATEGORY!r} is reserved for the summary over all functions")

    def to_dict(self) -> dict:
        return record_dict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchmarkSpec":
        """Missing entries take the defaults: all presets, the default suite, the protocol.

        An entry that is there is used as it is, so an empty or ``null`` list
        is refused. The ``stream_version`` a spec.json records is accepted;
        any other unknown key is refused.
        """
        refuse_unknown_keys(d, [f.name for f in fields(cls)] + ["stream_version"], "benchmark spec")
        for key in ("algorithms", "functions", "dims"):
            if key in d:
                json_value(f"benchmark spec: {key}", d[key], "list")
        algos = [
            algorithm_preset(e) if isinstance(e, str) else AlgorithmSpec.from_dict(e)
            for e in d.get("algorithms", ALGORITHM_PRESETS)
        ]
        functions = [FunctionDescriptor.from_dict(f) for f in d["functions"]] if "functions" in d else default_suite()
        casts = dict(budget="int", reps="int", master_seed="int", output_dir="str")
        casts["dims"] = lambda v: [json_value("benchmark spec: each of dims", dim, "int") for dim in v]
        return cls(algos, functions, **json_fields(d, casts, "benchmark spec"))


def default_benchmark_spec() -> BenchmarkSpec:
    """The protocol: the four presets on the default suite."""
    return BenchmarkSpec.from_dict({})


@dataclass(frozen=True)
class RunRecord:
    algorithm: str
    function: str
    dim: int
    rep: int
    seed: int
    evals_used: int
    best_fitness: float

    @property
    def key(self) -> tuple[str, str, int, int]:
        return (self.algorithm, self.function, self.dim, self.rep)

    @property
    def row(self) -> tuple:
        """The runs.csv fields, in ``RUNS_COLUMNS`` order."""
        return (self.algorithm, self.function, self.dim, self.rep, self.seed, self.evals_used, self.best_fitness)

    @property
    def trace_path(self) -> str:
        """The run's trace file, relative to the output directory."""
        return f"traces/{self.algorithm}__{self.function}__d{self.dim}__r{self.rep:04d}.csv"


RUNS_COLUMNS = [f.name for f in fields(RunRecord)]


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _update_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` unless the file already holds exactly it."""
    if not (path.exists() and path.read_bytes() == text.encode()):
        _atomic_write_text(path, text)


def _csv_line(row) -> str:
    """One CSV line of ``str`` fields, with a bool written ``true`` or ``false``."""
    return ",".join([("true" if v else "false") if type(v) is bool else str(v) for v in row]) + "\n"


def _csv_text(header: list[str], rows) -> str:
    return _csv_line(header) + "".join(map(_csv_line, rows))


def write_trace(path: Path, trace: RunTrace) -> None:
    """Write a run's best-so-far trace as ``eval,best`` CSV lines."""
    _atomic_write_text(path, _csv_text(TRACE_COLUMNS, trace.points))


def _read_rows(path: Path, columns: list[str]) -> list[list[str]] | None:
    """The fields of each newline-ended row of a results file under ``columns``.

    Every field the harness writes is unquoted, so a row is its line split
    at the commas. A row the file was cut inside has no newline, so it is
    never returned. A missing file or another header gives None.
    """
    lines = path.read_text().split("\n")[:-1] if path.exists() else []
    return [line.split(",") for line in lines[1:]] if lines[:1] == [",".join(columns)] else None


def _read_trace(path: Path) -> RunTrace:
    """A trace file's run; ValueError for a missing file, another header or a point that does not parse."""
    if (rows := _read_rows(path, TRACE_COLUMNS)) is None:
        raise ValueError(f"{path} is missing or has another header")
    points = tuple((int(e), float(b)) for e, b in rows)
    return RunTrace(points, points[-1][0] if points else 0)


def _check_evals_used(records, budget: int) -> None:
    for rec in records:
        if rec.evals_used > budget:
            raise RuntimeError(f"run {rec.key} used {rec.evals_used} evaluations, over the budget {budget}")


def _load_runs(out: Path, budget: int):
    """Yield (record, trace) of each recorded run, in key order.

    A row counts only if a newline ends it and its evals_used and
    best_fitness equal the last point of its trace; a trace cut before its
    final newline has lost that point. Other rows, and rows whose trace is
    missing or does not parse, are skipped so their runs are run again. A
    row over the budget raises RuntimeError.
    """
    records: dict[tuple, RunRecord] = {}
    for row in _read_rows(out / "runs.csv", RUNS_COLUMNS) or []:
        try:
            algorithm, function, dim, rep, seed, evals_used, best = row
            numbers = int(dim), int(rep), int(seed), int(evals_used), float(best)
        except ValueError:  # wrong field count or a cut number
            continue
        rec = RunRecord(algorithm, function, *numbers)
        records.setdefault(rec.key, rec)
    _check_evals_used(records.values(), budget)
    for key in sorted(records):
        rec = records[key]
        try:
            trace = _read_trace(out / rec.trace_path)
        except (OSError, ValueError):
            continue
        last = trace.points[-1] if trace.points else (rec.evals_used, float("inf"))
        if last == (rec.evals_used, rec.best_fitness):
            yield rec, trace


def _write_runs(path: Path, records: list[RunRecord]) -> None:
    rows = [r.row for r in sorted(records, key=lambda r: r.key)]
    _update_text(path, _csv_text(RUNS_COLUMNS, rows))


def _load_rse(path: Path) -> dict[tuple[str, int], RseTarget]:
    """The stored targets by (function, dim); a row that does not parse is estimated again."""
    targets: dict[tuple[str, int], RseTarget] = {}
    for row in _read_rows(path, RSE_COLUMNS) or []:
        try:
            function, dim, budget, reps, value = row
            targets[(function, int(dim))] = RseTarget(function, int(budget), int(reps), float(value))
        except ValueError:  # wrong field count or a cut number
            continue
    return targets


def _write_rse(path: Path, targets: dict[tuple[str, int], RseTarget]) -> None:
    rows = [
        (label, dim, t.budget, t.reps, t.value)
        for (label, dim), t in sorted(targets.items())
    ]
    _atomic_write_text(path, _csv_text(RSE_COLUMNS, rows))


def execute_run(algo: AlgorithmSpec, fn, budget: int, seed: int) -> RunTrace:
    """Run one optimizer once against a function under the budget."""
    return _KINDS[_kind_of(algo.config)][1](algo.config, fn, budget, seed)


def run_seed(master_seed: int, algorithm: str, function: str, dim: int, rep: int) -> int:
    return derive_seed(master_seed, "run", algorithm, function, dim, rep)


def rse_target(fn, budget: int, reps: int, master_seed: int) -> RseTarget:
    """The random-search target of a built (function, dim), from that cell's own seed."""
    return estimate_rse_target(fn, budget, reps, derive_seed(master_seed, "rse", fn.label, fn.space.dim))


def _cell_results(desc: FunctionDescriptor, dim: int, budget: int, master_seed: int, target_reps: int, runs):
    """One build of a (function, dim) cell's function, then its work on it.

    Yields ((label, dim), target) if ``target_reps`` is not 0, then (record,
    trace) for each (algo, rep, seed) of ``runs``.
    """
    fn = make_test_function(desc, dim=dim)
    if target_reps:
        yield (desc.label, dim), rse_target(fn, budget, target_reps, master_seed)
    for algo, rep, seed in runs:
        trace = execute_run(algo, fn, budget, seed)
        yield RunRecord(algo.name, desc.label, dim, rep, seed, trace.final_evals, trace.final_best), trace


def _run_task(*cell):
    """A pool task: the whole of ``_cell_results``, returned at once."""
    return list(_cell_results(*cell))


def _one_blas_thread() -> None:
    """Pool initializer: one OpenBLAS thread per worker, so N workers do not oversubscribe N cores.

    ``OPENBLAS_NUM_THREADS`` cannot do it: OpenBLAS reads it when numpy
    loads, before the fork. In a forked process the setter first starts
    OpenBLAS's thread pool again, and its idle thread would spin for about
    0.1 s of CPU; shutting the pool down stops that, and with one thread
    OpenBLAS never starts it again. Both functions are the ones numpy's
    scipy-openblas wheel exports; where they are absent this does nothing.
    """
    import ctypes

    from numpy.linalg import _umath_linalg  # linked against numpy's BLAS

    blas = ctypes.CDLL(_umath_linalg.__file__)
    setter = getattr(blas, "scipy_openblas_set_num_threads64_", None)
    shutdown = getattr(blas, "blas_thread_shutdown_", None)
    if setter is None or shutdown is None:
        return
    setter.argtypes, setter.restype = [ctypes.c_int], None
    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    setter(1)
    shutdown()


def _run_pool(tasks, workers: int, handle) -> None:
    """Run ``tasks`` on ``workers`` processes, with at most two per worker in flight.

    A bounded window keeps the work an error in the parent has to wait for
    small: on any exception the tasks not yet started are cancelled.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    todo, pending = iter(tasks), set()
    with ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread) as pool:
        try:
            while True:
                for task in islice(todo, 2 * workers - len(pending)):
                    pending.add(pool.submit(_run_task, *task))
                if not pending:
                    break
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    for result in fut.result():
                        handle(*result)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


@contextmanager
def _locked(out: Path):
    """Hold an exclusive lock on the directory ``out`` itself, or refuse at once.

    Two writers would share each file's ``.tmp`` name and interleave rows.
    Locking the directory's own descriptor adds no file to it.
    """
    fd = os.open(out, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise RuntimeError(f"{out} is in use by another process; wait for it or use another directory") from None
        yield
    finally:
        fcntl.flock(fd, fcntl.LOCK_UN)  # forked pool workers hold copies of fd
        os.close(fd)


def _read_spec(path: Path) -> tuple[dict, BenchmarkSpec]:
    """A spec.json's record and spec; refuses, naming it, one that does not parse or lacks a field."""
    try:
        record = json.loads(path.read_text())
        if missing := [name for name in _SPEC_FIELDS if name not in record]:
            raise ValueError(f"no {', '.join(missing)}")
        return record, BenchmarkSpec.from_dict(record)
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ValueError(f"{path} is not a readable spec.json ({err}). Write to a new output directory.") from err


def _resume_record(out: Path, spec: BenchmarkSpec) -> dict:
    """The spec.json content covering both the runs recorded in ``out`` and ``spec``'s.

    Refuses to add ``spec``'s results to a directory recorded for another
    benchmark. Results computed under different stream versions differ for
    the same seeds, so a spec.json that records another version (or none: it
    predates versioning, stream version 1) is refused. The recorded budget
    and master seed must match, and so must every algorithm config and
    function descriptor that both specs name. Adding algorithms, functions,
    dims or reps resumes: the record lists the recorded entries first, then
    the new ones, and the larger reps.
    """
    path = out / "spec.json"
    if not path.exists():
        return {**spec.to_dict(), "stream_version": STREAM_VERSION}
    record = _read_spec(path)[0]
    found = record.get("stream_version")
    if found != STREAM_VERSION:
        raise ValueError(
            f"{path} records RNG stream version {found if found is not None else 'none (1)'}, but this "
            f"code draws stream version {STREAM_VERSION}; resuming would mix results of the two. "
            "Write to a new output directory."
        )
    clashes = [
        f"{field} {record[field]} != {getattr(spec, field)}"
        for field in ("budget", "master_seed")
        if record[field] != getattr(spec, field)
    ]
    new = spec.to_dict()
    for group, key in (("algorithms", "name"), ("functions", "label")):
        recorded = {entry[key]: entry for entry in record[group]}
        clashes += [f"{group[:-1]} {e[key]!r} changed" for e in new[group] if recorded.get(e[key], e) != e]
        new[group] = record[group] + [e for e in new[group] if e[key] not in recorded]
    if clashes:
        raise ValueError(
            f"{path} records another benchmark ({'; '.join(clashes)}); resuming "
            "would mix results of the two. Write to a new output directory."
        )
    new["dims"] = record["dims"] + [d for d in new["dims"] if d not in record["dims"]]
    new["reps"] = max(record["reps"], new["reps"])
    return {**new, "stream_version": STREAM_VERSION}


def ensure_rse_targets(spec: BenchmarkSpec) -> dict[tuple[str, int], RseTarget]:
    """Compute (or load) the random-search targets for every function/dim cell.

    Targets are estimated with the reps the directory records (the larger
    of the recorded and the given reps), and a stored target of fewer reps
    is estimated again. The reps draw in turn from one seed, so a directory
    resumed with more reps gets the targets of an uninterrupted run.
    A directory recorded for another benchmark, or whose stored targets
    were estimated under another budget, is refused with ``ValueError``;
    spec.json records the benchmark as ``run_benchmark`` records it.
    """
    return _benchmark(spec, 1, with_runs=False)[0]


def run_benchmark(spec: BenchmarkSpec, workers: int = 1) -> list[RunRecord]:
    """Execute the full matrix, skipping runs already recorded on disk.

    The final runs.csv is sorted by run key and byte-identical across
    re-runs, resumptions, and worker counts. A directory recorded for
    another benchmark is refused: another RNG stream version (see
    ``core.STREAM_VERSION``), budget or master seed, or a changed algorithm
    config or function descriptor under a recorded name. spec.json then
    records everything the directory holds: recorded and new algorithms,
    functions and dims, and the larger reps. Missing targets are estimated
    as ``ensure_rse_targets`` does, each as the first work of its cell.
    """
    return _benchmark(spec, workers, with_runs=True)[1]


def _benchmark(spec: BenchmarkSpec, workers: int, with_runs: bool):
    """The one path of ``ensure_rse_targets`` and ``run_benchmark``: (targets, records).

    Every refusal comes before any build or write. Then each (function, dim)
    cell with work builds once, estimates its target if it lacks one of the
    recorded reps, and runs its missing runs (none unless ``with_runs``).
    The parent writes every file, rse.csv once at the end, even after an
    error, if a target was estimated.
    """
    import logging  # as with the pool, importing the package does not load it

    if workers < 1:
        raise ValueError("workers must be at least 1")
    replace(spec)  # the spec's checks again: its lists may have changed since it was built
    for desc, dim in product(spec.functions, spec.dims):
        resolve_descriptor(desc, dim=dim)
    out, log = Path(spec.output_dir), logging.getLogger(__name__)
    out.mkdir(parents=True, exist_ok=True)
    with _locked(out):
        record = _resume_record(out, spec)
        rse_path, runs_path = out / "rse.csv", out / "runs.csv"
        targets = _load_rse(rse_path)
        if stale := {t.budget for t in targets.values()} - {spec.budget}:
            raise ValueError(
                f"budget mismatch for {rse_path}: rse.csv {min(stale)}, spec {spec.budget}; random-search "
                "targets and runs of different budgets must not be mixed. Write to a new output directory."
            )
        _update_text(out / "spec.json", json.dumps(record, indent=2) + "\n")
        existing = {}
        if with_runs:
            (out / "traces").mkdir(exist_ok=True)
            existing = {rec.key: rec for rec, _ in _load_runs(out, spec.budget)}
            # Keep only the rows that count, so appended rows start on a fresh line.
            _write_runs(runs_path, existing.values())

        # Each cell with work: its target reps (0 if it has its target) and
        # its missing runs, in (algorithm, rep) order.
        cells = []
        for desc, dim in product(spec.functions, spec.dims):
            target, reps = targets.get((desc.label, dim)), record["reps"]
            target_reps = 0 if target is not None and target.reps >= reps else reps
            runs = [
                (algo, rep, run_seed(spec.master_seed, algo.name, desc.label, dim, rep))
                for algo in spec.algorithms
                for rep in range(spec.reps)
                if with_runs and (algo.name, desc.label, dim, rep) not in existing
            ]
            if target_reps or runs:
                cells.append((desc, dim, spec.budget, spec.master_seed, target_reps, runs))

        new_records, estimated = [], []
        with open(runs_path, "a", newline="") if with_runs else nullcontext() as fh:

            def handle(key, result):  # a target under its (label, dim), or a run under its record
                if isinstance(result, RseTarget):
                    targets[key] = result
                    estimated.append(key)
                    log.info("rse  %s d=%d  target=%.6g", *key, result.value)
                    return
                write_trace(out / key.trace_path, result)
                new_records.append(key)
                fh.write(_csv_line(key.row))
                fh.flush()
                log.info("run  %s %s d=%d rep=%d  best=%.6g", *key.key, key.best_fitness)

            try:
                if workers == 1:
                    for cell in cells:
                        for result in _cell_results(*cell):
                            handle(*result)
                elif cells:
                    # A cell's target is the first work of its first task.
                    tasks = [
                        (desc, dim, budget, seed, target_reps if i == 0 else 0, runs[i : i + _TASK_RUNS])
                        for desc, dim, budget, seed, target_reps, runs in cells
                        for i in range(0, max(len(runs), 1), _TASK_RUNS)
                    ]
                    _run_pool(tasks, min(workers, len(tasks)), handle)
            finally:
                if estimated:
                    _write_rse(rse_path, targets)

        _check_evals_used(new_records, spec.budget)
        records = sorted([*existing.values(), *new_records], key=lambda r: r.key)
        if with_runs:
            _write_runs(runs_path, records)
    return targets, records


@dataclass
class SummaryResult:
    ert_rows: list[dict]
    summary_rows: list[dict]


def summarize(output_dir: str | Path) -> SummaryResult:
    """Build ert.csv, summary.csv and bnfv.csv, the normalized convergence curves.

    Expected running times are measured against the stored random-search
    targets. Per category and dimension, each algorithm's mean ERT is
    compared to the best algorithm's with a paired signed-rank test over
    the per-function ERT values; cells involving lower bounds are flagged.
    """
    out = Path(output_dir)
    with _locked(out):
        return _summarize(out, _read_spec(out / "spec.json")[1])


def _summarize(out: Path, spec: BenchmarkSpec) -> SummaryResult:
    targets = _load_rse(out / "rse.csv")
    algo_names = [a.name for a in spec.algorithms]
    labels = [f.label for f in spec.functions]
    cat_of = {f.label: f.category for f in spec.functions}
    cells = [(algo, label, dim) for algo in algo_names for label in labels for dim in spec.dims]
    grid = list(range(BNFV_GRID_STEP, spec.budget + 1, BNFV_GRID_STEP))

    # One cell's traces at a time: the runs come in key order.
    ert_by_cell: dict[tuple[str, str, int], ErtResult] = {}
    curves = []
    for cell, runs in groupby(_load_runs(out, spec.budget), key=lambda run: run[0].key[:3]):
        _, label, dim = cell
        target = targets.get((label, dim))
        if target is None:
            raise ValueError(f"missing random-search target for {label} d={dim}")
        traces = [trace for _, trace in runs]
        ert_by_cell[cell] = expected_running_time(traces, target.value, spec.budget)
        curves.append(_bnfv_rows(*cell, traces, target, grid))
    if not ert_by_cell:
        raise ValueError(f"no run records found under {out}")
    _atomic_write_text(out / "bnfv.csv", _csv_line(BNFV_COLUMNS) + "".join(curves))
    ert_rows = [
        dict(algorithm=a, function=f, dim=d, ert=e.value, lower_bound=e.lower_bound, success_rate=e.success_rate)
        for a, f, d in cells
        if (e := ert_by_cell.get((a, f, d)))
    ]

    _atomic_write_text(out / "ert.csv", _csv_text(ERT_COLUMNS, [[r[c] for c in ERT_COLUMNS] for r in ert_rows]))

    summary_rows = build_summary_rows(
        ert_by_cell, algo_names, labels, cat_of, spec.dims, list(dict.fromkeys(cat_of.values()))
    )
    _atomic_write_text(
        out / "summary.csv", _csv_text(SUMMARY_COLUMNS, [[r[c] for c in SUMMARY_COLUMNS] for r in summary_rows])
    )
    return SummaryResult(ert_rows, summary_rows)


def _bnfv_rows(algo, label, dim, traces, target, grid) -> str:
    """A cell's bnfv.csv rows: mean and median over its runs at each grid point."""
    try:
        curves = np.array([bnfv_on_grid(tr, target, grid) for tr in traces])
        normalized = "true"
    except NormalizationUndefined:
        # Zero target: fall back to raw best fitness values.
        curves = np.array([best_on_grid(tr, grid) for tr in traces])
        normalized = "false"
    mean, median = curves.mean(axis=0).tolist(), np.median(curves, axis=0).tolist()
    return "".join(f"{algo},{label},{dim},{normalized},{e},{m},{md}\n" for e, m, md in zip(grid, mean, median))


def build_summary_rows(
    ert_by_cell: dict[tuple[str, str, int], ErtResult],
    algo_names: list[str],
    labels: list[str],
    cat_of: dict[str, str],
    dims: list[int],
    category_order: list[str],
) -> list[dict]:
    """Per-(category, dim) mean ERT per algorithm plus a test vs the best.

    The best algorithm has the lowest mean ERT in the cell; every other
    algorithm is compared to it with a paired signed-rank test over the
    per-function ERT values. Lower-bound ERTs enter the means as their
    bound values and flag the row with ">=".
    """
    rows: list[dict] = []
    groups = [(cat, [l for l in labels if cat_of[l] == cat]) for cat in category_order]
    if len(category_order) > 1:
        groups.append((OVERALL_CATEGORY, list(labels)))
    for cat, cat_labels in groups:
        for dim in dims:
            per_algo: dict[str, list[ErtResult]] = {}
            for algo in algo_names:
                values = [ert_by_cell.get((algo, label, dim)) for label in cat_labels]
                if any(v is None for v in values):
                    continue
                per_algo[algo] = values
            if not per_algo:
                continue
            means = {a: float(np.mean([e.value for e in v])) for a, v in per_algo.items()}
            best_algo = min(means, key=lambda a: (means[a], algo_names.index(a)))
            best_vector = [e.value for e in per_algo[best_algo]]
            for algo, values in per_algo.items():  # in algo_names order
                flag = ">=" if any(e.lower_bound for e in values) else ""
                if algo == best_algo:
                    p = ""
                elif len(values) < 2:  # a single pair can never reject the null (exact p is 1)
                    p = 1.0
                else:
                    p = wilcoxon_signed_rank([e.value for e in values], best_vector).p_value
                rows.append(dict(category=cat, dim=dim, algorithm=algo, mean_ert=means[algo], flag=flag, p_vs_best=p))
    return rows
