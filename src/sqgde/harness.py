"""Benchmark harness: run an algorithm/function/dimension/repetition matrix
under a fixed evaluation budget and summarize the results.

Each run's seed is derived deterministically from the master seed and the
run key, so the full matrix is reproducible from the spec alone, results
are independent of execution order and worker count, and an interrupted
directory can be resumed (completed records are skipped by key).

The work is grouped by (function, dim) cell: a cell's random-search target
if it lacks one, then its missing runs. The calling process builds each
cell with work once and cuts its runs into tasks of at most four that carry
the built function, the first of which estimates the target first. One
worker runs the tasks in process; a process pool keeps two tasks per worker
in flight and starts no more workers than there are tasks. The parent
writes every file and locks the output directory while it works. Every
call ends, also after an error, by rewriting rse.csv, and runs.csv if it
runs, from the rows that count. Between its start, where it rewrites
runs.csv too, and its end it appends and flushes each new run's row.

Artifacts under the output directory:

* ``spec.json``      the benchmark spec that produced everything below, plus
                     the RNG ``stream_version`` of the code that ran it
* ``rse.csv``        random-search reference targets per function and dim
* ``runs.csv``       one row per run (sorted by key, full float precision)
* ``traces/``        per-run best-so-far traces, ``eval,best`` per line
* ``ert.csv``        expected running times (written by ``summarize``)
* ``summary.csv``    per-category means and tests vs the best algorithm
* ``bnfv.csv``       mean/median normalized convergence curves of every cell
                     on one grid, ``normalized`` false where a zero or non-finite
                     target leaves the raw best-so-far (written by ``summarize``)
"""

from __future__ import annotations

import fcntl
import json
import os
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from itertools import groupby, islice, product, repeat
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from .algos import DEConfig, SQGConfig, run_de, run_sqg
from .core import STREAM_VERSION, RunTrace, derive_seed, record_dict
from .core import check_names, json_fields, json_list, json_value, refuse_unknown_keys
from .metrics import (
    ErtResult,
    RseTarget,
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
RSE_COLUMNS = list(RseTarget._fields)
TRACE_COLUMNS = ["eval", "best"]
BNFV_COLUMNS = ["algorithm", "function", "dim", "normalized", "eval", "mean", "median"]
BNFV_GRID_STEP = 10
OVERALL_CATEGORY = "overall"
# Runs per task: a task is small enough that an error in the parent cancels
# most of the queued pool work. Each pool task pickles its cell's function.
_TASK_RUNS = 4
# The fields every spec.json records; a file without one is refused.
_SPEC_FIELDS = ("algorithms", "functions", "dims", "budget", "reps", "master_seed")

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
    def from_dict(cls, d: dict | str) -> "AlgorithmSpec":
        """A preset's name, or a record: preset ``name`` with ``d``'s parameters, or a ``kind``'s config of them."""
        if isinstance(d, str):
            return algorithm_preset(d)
        name = json_value("algorithm", d, "object").get("name")
        check_names("algorithm name", [name])
        what, kind = f"algorithm {name!r}", d.get("kind")
        if kind is not None and json_value(f"{what}: kind", kind, "str") not in _KINDS:
            raise ValueError(f"unknown algorithm kind {kind!r}")
        preset = algorithm_preset(name).config if kind is None else None
        config_fields = fields(preset or _KINDS[kind][0])
        refuse_unknown_keys(d, ["name", "kind", *(f.name for f in config_fields)], what)
        params = json_fields(d, {f.name: f.type for f in config_fields}, what)
        if not preset and (missing := [f.name for f in config_fields if f.default is MISSING and f.name not in d]):
            raise ValueError(f"{what} needs {', '.join(missing)}")
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
            check_names(what, names)
            if len(set(names)) != len(names):
                raise ValueError(f"{what}s must be unique")
        categories = [f.category for f in self.functions]
        check_names("function category", categories)
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
        what = "benchmark spec"
        refuse_unknown_keys(json_value(what, d, "object"), [f.name for f in fields(cls)] + ["stream_version"], what)
        casts = dict(budget="int", reps="int", master_seed="int", output_dir="str")
        casts["algorithms"] = lambda v: json_list(what, "algorithms", v, AlgorithmSpec.from_dict)
        casts["functions"] = lambda v: json_list(what, "functions", v, FunctionDescriptor.from_dict)
        casts["dims"] = lambda v: json_list(what, "dims", v, "int")
        given = json_fields(d, casts, what)
        algos = given.pop("algorithms", list(ALGORITHM_PRESETS.values()))
        return cls(algos, given.pop("functions") if "functions" in given else default_suite(), **given)


def default_benchmark_spec() -> BenchmarkSpec:
    """The protocol: the four presets on the default suite."""
    return BenchmarkSpec.from_dict({})


class RunRecord(NamedTuple):
    """A run's runs.csv row: its fields are the columns, in order."""

    algorithm: str
    function: str
    dim: int
    rep: int
    seed: int
    evals_used: int
    best_fitness: float

    @property
    def key(self) -> tuple[str, str, int, int]:
        return self[:4]

    @property
    def trace_path(self) -> str:
        """The run's trace file, relative to the output directory."""
        return f"traces/{self.algorithm}__{self.function}__d{self.dim}__r{self.rep:04d}.csv"


RUNS_COLUMNS = list(RunRecord._fields)


def _write_text(path: Path, text: str) -> None:
    """Replace ``path`` atomically by ``text``, unless the file already holds exactly it."""
    if not (path.exists() and path.read_bytes() == text.encode()):
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, path)


def _csv_line(row) -> str:
    """One CSV line of ``str`` fields, with a bool written ``true`` or ``false``."""
    return ",".join([("true" if v else "false") if type(v) is bool else str(v) for v in row]) + "\n"


def _write_csv(path: Path, columns: list[str], rows) -> None:
    """Write a results table: the ``columns`` header line, then each row's :func:`_csv_line`."""
    _write_text(path, _csv_line(columns) + "".join(map(_csv_line, rows)))


def write_trace(path: Path, trace: RunTrace) -> None:
    """Write a run's best-so-far trace as ``eval,best`` CSV lines, each point formatted once as ``str`` does."""
    _write_text(path, _csv_line(TRACE_COLUMNS) + "".join([f"{e},{b}\n" for e, b in trace.points]))


def _read_rows(path: Path, columns: list[str]) -> list[list[str]] | None:
    """The fields of each newline-ended row of a results file under ``columns``.

    Every field the harness writes is unquoted, so a row is its line split
    at the commas. A row the file was cut inside has no newline, so it is
    never returned. A line that is not UTF-8 gives no fields, so it does not
    parse. A missing file or another header gives None.
    """
    rows = []
    for line in path.read_bytes().split(b"\n")[:-1] if path.exists() else []:
        try:
            rows.append(line.decode().split(","))
        except UnicodeDecodeError:
            rows.append([])
    return rows[1:] if rows[:1] == [columns] else None


def _read_trace(path: Path) -> RunTrace:
    """A trace file's run; ValueError if it is missing, has another header or no point, is cut or does not parse."""
    lines = path.read_bytes().decode().split("\n") if path.exists() else []  # UnicodeDecodeError is a ValueError
    if lines[:1] != [",".join(TRACE_COLUMNS)] or len(lines) < 3 or lines[-1]:
        raise ValueError(f"{path} is missing, has another header, holds no point or is cut inside its last line")
    points = tuple([(int(e), float(b)) for e, b in map(str.split, lines[1:-1], repeat(","))])
    return RunTrace(points, points[-1][0])


def _load_table(path: Path, record, key_len: int) -> dict:
    """A resumable table's ``record`` rows, each under its first ``key_len`` fields.

    A row counts if a newline ends it, it is UTF-8, it has one field per
    field of ``record`` and each parses as that field's type; the first row
    of a key counts. Any other row is skipped, so its work is done again.
    """
    casts, table = list(get_type_hints(record).values()), {}
    for row in _read_rows(path, list(record._fields)) or []:
        try:
            rec = record(*[cast(v) for cast, v in zip(casts, row, strict=True)])
        except ValueError:  # a field too many or too few, or a cut number
            continue
        table.setdefault(rec[:key_len], rec)
    return table


def _load_runs(out: Path, spec: BenchmarkSpec):
    """Yield (record, trace) of each recorded run of ``spec``, in key order.

    A runs.csv row counts if it counts in :func:`_load_table`, its key is in
    ``spec``'s algorithms × functions × dims × range(reps), its seed is its
    key's :func:`run_seed`, and its trace parses and ends on (evals_used,
    best_fitness), a point lost if the trace is cut. Other rows are skipped
    and their runs run again; any row over the budget raises RuntimeError.
    """
    names = [a.name for a in spec.algorithms], [f.label for f in spec.functions], spec.dims, range(spec.reps)
    cells = set(product(*names))  # every name can be a part of a file name, so no trace is read from outside traces/
    for key, rec in sorted(_load_table(out / "runs.csv", RunRecord, 4).items()):
        if rec.evals_used > spec.budget:  # also in a row of a cell the spec does not name
            raise RuntimeError(f"run {key} used {rec.evals_used} evaluations, over the budget {spec.budget}")
        if key not in cells or rec.seed != run_seed(spec.master_seed, *key):
            continue
        try:
            trace = _read_trace(out / rec.trace_path)
        except (OSError, ValueError):
            continue
        if trace.points[-1] == (rec.evals_used, rec.best_fitness):
            yield rec, trace


def execute_run(algo: AlgorithmSpec, fn, budget: int, seed: int) -> RunTrace:
    """Run one optimizer once against a function under the budget."""
    return _KINDS[_kind_of(algo.config)][1](algo.config, fn, budget, seed)


def run_seed(master_seed: int, algorithm: str, function: str, dim: int, rep: int) -> int:
    return derive_seed(master_seed, "run", algorithm, function, dim, rep)


def rse_target(fn, budget: int, reps: int, master_seed: int) -> RseTarget:
    """The random-search target of a built (function, dim), from that cell's own seed."""
    return estimate_rse_target(fn, budget, reps, derive_seed(master_seed, "rse", fn.label, fn.space.dim))


def _cell_results(fn, budget: int, master_seed: int, target_reps: int, runs):
    """A task's work on a built (function, dim) cell.

    Yields ((label, dim), target) if ``target_reps`` is not 0, then (record,
    trace) for each (algo, rep, seed) of ``runs``.
    """
    label, dim = fn.label, fn.space.dim
    if target_reps:
        yield (label, dim), rse_target(fn, budget, target_reps, master_seed)
    for algo, rep, seed in runs:
        trace = execute_run(algo, fn, budget, seed)
        yield RunRecord(algo.name, label, dim, rep, seed, trace.final_evals, trace.final_best), trace


def _run_task(*task):
    """A pool task: the whole of ``_cell_results``, returned at once."""
    return list(_cell_results(*task))


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


def _read_spec(path: Path) -> tuple[object, BenchmarkSpec]:
    """A spec.json's stream version and spec; refuses, naming it, one that does not parse or lacks a field."""
    try:
        record = json_value("spec.json", json.loads(path.read_text()), "object")
        if missing := [name for name in _SPEC_FIELDS if name not in record]:
            raise ValueError(f"no {', '.join(missing)}")
        return record.get("stream_version"), BenchmarkSpec.from_dict(record)
    except ValueError as err:
        raise ValueError(f"{path} is not a readable spec.json ({err}). Write to a new output directory.") from err


def _merged_spec(out: Path, spec: BenchmarkSpec) -> BenchmarkSpec:
    """The spec covering both the runs recorded in ``out`` and ``spec``'s.

    Refuses to add ``spec``'s results to a directory recorded for another
    benchmark. Results computed under different stream versions differ for
    the same seeds, so a spec.json that records another version (or none: it
    predates versioning, stream version 1) is refused. The recorded budget
    and master seed must match, and so must every algorithm config and
    function descriptor that both specs name, as JSON records. Adding
    algorithms, functions, dims or reps resumes: the merged spec lists the
    recorded entries first, then the new ones, and takes the larger reps.
    """
    path = out / "spec.json"
    if not path.exists():
        return spec
    found, recorded = _read_spec(path)
    if found != STREAM_VERSION:
        raise ValueError(
            f"{path} records RNG stream version {found if found is not None else 'none (1)'}, but this "
            f"code draws stream version {STREAM_VERSION}; resuming would mix results of the two. "
            "Write to a new output directory."
        )
    clashes = [
        f"{field} {getattr(recorded, field)} != {getattr(spec, field)}"
        for field in ("budget", "master_seed")
        if getattr(recorded, field) != getattr(spec, field)
    ]
    merged = {}
    for group, key in (("algorithms", "name"), ("functions", "label")):
        known = {getattr(e, key): e.to_dict() for e in getattr(recorded, group)}
        new = [(getattr(e, key), e) for e in getattr(spec, group)]
        clashes += [f"{group[:-1]} {n!r} changed" for n, e in new if n in known and known[n] != e.to_dict()]
        merged[group] = getattr(recorded, group) + [e for n, e in new if n not in known]
    if clashes:
        raise ValueError(
            f"{path} records another benchmark ({'; '.join(clashes)}); resuming "
            "would mix results of the two. Write to a new output directory."
        )
    dims = recorded.dims + [d for d in spec.dims if d not in recorded.dims]
    return replace(spec, **merged, dims=dims, reps=max(recorded.reps, spec.reps))


def ensure_rse_targets(spec: BenchmarkSpec) -> dict[tuple[str, int], RseTarget]:
    """Compute (or load) the random-search targets for every function/dim cell.

    Targets are estimated with the reps the directory records (the larger
    of the recorded and the given reps), and a stored target of other reps
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

    Every refusal comes before any build or write and sees every row that
    parses; then a stored target or run counts only if the merged spec, the
    one spec.json records, names its cell. Each (function, dim) cell with
    work builds once, here, estimates its target if it lacks one of the
    recorded reps, and runs its missing runs (none unless ``with_runs``).
    The parent writes every file. Each call ends, also after an error, by
    rewriting rse.csv, and runs.csv if ``with_runs``, from the rows that count.
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
        merged = _merged_spec(out, spec)
        rse_path, runs_path = out / "rse.csv", out / "runs.csv"
        targets = _load_table(rse_path, RseTarget, 2)
        if stale := {t.budget for t in targets.values()} - {spec.budget}:
            raise ValueError(
                f"budget mismatch for {rse_path}: rse.csv {min(stale)}, spec {spec.budget}; random-search "
                "targets and runs of different budgets must not be mixed. Write to a new output directory."
            )
        targets = {c: targets[c] for c in product([f.label for f in merged.functions], merged.dims) if c in targets}
        records = {rec.key: rec for rec, _ in _load_runs(out, merged)} if with_runs else {}
        record = {**merged.to_dict(), "stream_version": STREAM_VERSION}
        _write_text(out / "spec.json", json.dumps(record, indent=2) + "\n")
        if with_runs:
            (out / "traces").mkdir(exist_ok=True)
            # Keep only the rows that count, so appended rows start on a fresh line.
            _write_csv(runs_path, RUNS_COLUMNS, sorted(records.values()))

        # Each cell with work, built once here: its target reps (0 if it has
        # its target) and its missing runs, in (algorithm, rep) order, cut
        # into tasks of at most _TASK_RUNS runs. The first task estimates the target.
        tasks = []
        for desc, dim in product(spec.functions, spec.dims):
            target, reps = targets.get((desc.label, dim)), merged.reps
            target_reps = 0 if target is not None and target.reps == reps else reps
            runs = [
                (algo, rep, run_seed(spec.master_seed, algo.name, desc.label, dim, rep))
                for algo in spec.algorithms
                for rep in range(spec.reps)
                if with_runs and (algo.name, desc.label, dim, rep) not in records
            ]
            if target_reps or runs:
                fn = make_test_function(desc, dim=dim)
                tasks += [
                    (fn, spec.budget, spec.master_seed, target_reps if i == 0 else 0, runs[i : i + _TASK_RUNS])
                    for i in range(0, max(len(runs), 1), _TASK_RUNS)
                ]

        try:
            with open(runs_path, "a", newline="") if with_runs else nullcontext() as fh:

                def handle(key, result):  # a target under its (label, dim), or a run under its record
                    if isinstance(result, RseTarget):
                        targets[key] = result
                        log.info("rse  %s d=%d  target=%.6g", *key, result.value)
                        return
                    write_trace(out / key.trace_path, result)
                    records[key.key] = key
                    fh.write(_csv_line(key))
                    fh.flush()
                    log.info("run  %s %s d=%d rep=%d  best=%.6g", *key.key, key.best_fitness)

                if workers == 1:
                    for task in tasks:
                        for result in _cell_results(*task):
                            handle(*result)
                elif tasks:
                    _run_pool(tasks, min(workers, len(tasks)), handle)
        finally:  # the with has closed the append handle, so no buffered write lands on the replaced runs.csv
            _write_csv(rse_path, RSE_COLUMNS, sorted(targets.values()))
            if with_runs:
                _write_csv(runs_path, RUNS_COLUMNS, sorted(records.values()))
    return targets, sorted(records.values())


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
    targets = _load_table(out / "rse.csv", RseTarget, 2)
    algo_names = [a.name for a in spec.algorithms]
    cat_of = {f.label: f.category for f in spec.functions}
    cells = dict.fromkeys((algo, label, dim) for algo in algo_names for label in cat_of for dim in spec.dims)
    grid = list(range(BNFV_GRID_STEP, spec.budget + 1, BNFV_GRID_STEP))

    # One cell's traces at a time: the runs come in key order.
    ert_by_cell: dict[tuple[str, str, int], ErtResult] = {}
    curves = []
    for cell, runs in groupby(_load_runs(out, spec), key=lambda run: run[0].key[:3]):
        _, label, dim = cell
        target = targets.get((label, dim))
        if target is None:
            raise ValueError(f"missing random-search target for {label} d={dim}")
        traces = [trace for _, trace in runs]
        ert_by_cell[cell] = expected_running_time(traces, target.value, spec.budget)
        curves += _bnfv_rows(*cell, traces, target, grid)
    if not ert_by_cell:
        raise ValueError(f"no run records found under {out}")
    _write_csv(out / "bnfv.csv", BNFV_COLUMNS, curves)
    ert_rows = [dict(zip(ERT_COLUMNS, (*cell, *ert_by_cell[cell]))) for cell in cells if cell in ert_by_cell]
    _write_csv(out / "ert.csv", ERT_COLUMNS, map(dict.values, ert_rows))
    summary_rows = build_summary_rows(ert_by_cell, algo_names, cat_of, spec.dims)
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, map(dict.values, summary_rows))
    return SummaryResult(ert_rows, summary_rows)


def _bnfv_rows(algo, label, dim, traces, target, grid) -> list[tuple]:
    """A cell's bnfv.csv rows: mean and median over its runs at each grid point, its four columns formatted once."""
    normalized, curves = bnfv_on_grid(traces, target.value, grid)
    mean, median = curves.mean(axis=0).tolist(), np.median(curves, axis=0).tolist()
    cell = _csv_line((algo, label, dim, normalized))[:-1]
    return [(cell, e, m, md) for e, m, md in zip(grid, mean, median)]


def build_summary_rows(
    ert_by_cell: dict[tuple[str, str, int], ErtResult],
    algo_names: list[str],
    cat_of: dict[str, str],
    dims: list[int],
) -> list[dict]:
    """Per-(category, dim) mean ERT per algorithm plus a test vs the best.

    ``cat_of`` maps each function label to its category, in suite order;
    the categories come in the order of their first label, then, if there
    are several, ``overall`` over all the labels. The best algorithm has
    the lowest mean ERT in the cell; every other algorithm is compared to
    it with a paired signed-rank test over the per-function ERT values.
    Lower-bound ERTs enter the means as their bound values and flag the
    row with ">=".
    """
    rows: list[dict] = []
    category_order = list(dict.fromkeys(cat_of.values()))
    groups = [(cat, [l for l in cat_of if cat_of[l] == cat]) for cat in category_order]
    if len(category_order) > 1:
        groups.append((OVERALL_CATEGORY, list(cat_of)))
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
                rows.append(dict(zip(SUMMARY_COLUMNS, (cat, dim, algo, means[algo], flag, p))))
    return rows
