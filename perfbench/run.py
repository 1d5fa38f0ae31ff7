"""Fixed-budget benchmark of the sqgde protocol pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload de_loop_d30 --seed 1 --seconds 36 --trace 0

``--trace 0`` times seven set-ups, each in a fresh interpreter, then
repeats the workload's pipeline (RSE targets, runs, summary) on an empty
directory until ``--seconds`` have passed in all and at least three
passes are done (see ``iteration.py`` and ``pipeline.py``). It reports the
median of each end-to-end metric, with the timings scaled to reference
speed (see ``reference.py``). ``--trace 1`` makes the traced run of ``layers.py`` and
reports the per-layer metrics.

Every pass is checked (see ``checks.py``) and every pass of one invocation
must give the same result digest. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` runs, and the
metrics named in ``BENCHMARK.json`` with their units. The exit code is 1
when a check fails, 2 when the checkout holds no ``src/sqgde`` package,
and 3 when the metric names differ from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckResult
from reference import scale
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SETUPS = 7
SETUP_TIMEOUT_S = 20.0
# The set-ups and the passes together stay inside the three minutes a run may take.
TOTAL_TIMEOUT_S = 170.0


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run iteration.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "iteration.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\npass killed after {timeout:.0f} s"
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _last_json(proc: subprocess.CompletedProcess) -> dict | None:
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(workload: Workload, seed: int, seconds: int, work: Path):
    def failure(what, proc):
        return {}, [CheckResult(workload.runs, workload.runs, [f"{what} failed:\n{proc.stderr[-4000:]}"])], []

    # The set-ups come first and count against --seconds; the passes get the rest.
    start = time.perf_counter()
    setups = []
    for i in range(SETUPS):
        proc = _child([str(SRC), "setup", workload.name, str(seed), str(work / f"setup{i}")], SETUP_TIMEOUT_S)
        result = _last_json(proc)
        if result is None:
            return failure("set-up", proc)
        setups.append(result)
    elapsed = time.perf_counter() - start
    proc = _child(
        [str(SRC), "passes", workload.name, str(seed), str(work), str(max(0.0, seconds - elapsed))],
        TOTAL_TIMEOUT_S - elapsed,
    )
    result = _last_json(proc)
    if result is None:
        return failure("pass", proc)

    passes = result["passes"]
    checks = [CheckResult(workload.runs, p["failed"], p["problems"], p["digest"]) for p in passes]
    if len({p["digest"] for p in passes}) != 1 or len({p["ert_mean"] for p in passes}) != 1:
        checks[-1].problems.append("passes with the same seed gave different results")

    # Each set-up is scaled by the reference timed in its own process. The
    # set-up is left out of time_to_table_s, whose spread it would set.
    def medians(times: list[dict], setup_s: list[float]) -> dict:
        return {
            "setup_s": statistics.median(setup_s),
            "rse_s": statistics.median(t["rse_s"] for t in times),
            "runs_per_s": workload.runs / statistics.median(t["runs_s"] for t in times),
            "time_to_table_s": statistics.median(t["rse_s"] + t["runs_s"] + t["summarize_s"] for t in times),
        }

    metrics = {
        **medians(passes, [scale(s["setup_s"], s["reference_s"]) for s in setups]),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    wall = {
        **medians([p["wall"] for p in passes], [s["setup_s"] for s in setups]),
        "reference_s": result["reference_s"],
        "setup_reference_s": statistics.median(s["reference_s"] for s in setups),
    }
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    report = [
        f"{len(passes)} passes of {workload.runs} runs in {result['seconds']:.1f} s, after {SETUPS} set-ups",
        "pass times at reference speed (s): "
        + " ".join(format(p["rse_s"] + p["runs_s"] + p["summarize_s"], ".3f") for p in passes),
        "set-up times (s, wall/at reference speed): "
        + " ".join(f"{s['setup_s']:.3f}/{scale(s['setup_s'], s['reference_s']):.3f}" for s in setups),
        f"wall-clock medians: {', '.join(f'{k} {v:.4g}' for k, v in wall.items())}",
        f"fail_rate {failed / attempted:g} failed/attempted runs ({failed}/{attempted})",
        f"ert_mean {passes[0]['ert_mean']:.6g} evaluations (quality guard; fixed by code and seed)",
    ]
    return metrics, checks, report


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqgde" / "__init__.py").is_file():
        print(f"error: no sqgde package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            from layers import traced_run

            spans_path = WORK / f"spans-{workload.name}-seed{args.seed}.json"
            metrics, checks, report = traced_run(workload, args.seed, work, spans_path)
        else:
            metrics, checks, report = untraced(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = all(c.correct for c in checks)
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in report:
        print(line)
    for digest in sorted({c.digest for c in checks if c.digest}):
        print(f"digest sha256:{digest} (runs.csv + rse.csv)")
    for c in checks:
        for problem in c.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
    if correct and set(metrics) != set(units):
        print(
            f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units.get(name, '')}")
    result = {
        "correct": correct,
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
