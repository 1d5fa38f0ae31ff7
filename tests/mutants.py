"""A hand-kept mutation check: does tier-1 fail when a contract line changes?

Each mutant replaces one piece of text in one file of ``src/``. The script
copies the checkout to a temporary directory, checks that the unmutated
copy passes tier-1, then applies the mutants one at a time and runs tier-1
with ``-x`` on each. A mutant whose ``old`` text does not occur exactly
once in its file is refused before anything runs, so the list cannot drift
silently from the code; ``test_mutants_apply.py`` makes the same check in
tier-1, so an edit of a listed line fails there at once. A mutant is killed
when tier-1, but for that check, fails on it. The script exits with 1 if a
mutant survives that is not marked equivalent:

    python tests/mutants.py

It runs serially and takes several minutes. pytest does not collect it (its
name does not start with ``test_``). A change to a listed line updates its
mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
APPLY_CHECK = "tests/test_mutants_apply.py"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results", ".perfbench_out")


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    why: str
    equivalent: str = ""  # why no test can tell the mutant from the code, if none can


MUTANTS = [
    Mutant(
        "src/sqgde/algos.py",
        "usable = np.isfinite(gaps) & (dist > eps_pair)",
        "usable = np.isfinite(gaps) & (dist >= eps_pair)",
        "a pair exactly eps_pair long is coincident and left out of S",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "eps = 1e-12 * space.mean_range",
        "eps = 0.0",
        "run_de scales the coincidence threshold with the box",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "    if flat.size % _W_BLOCK == 1:  # numpy multiplies a one-element complex block outside its SIMD loop\n"
        "        flat = np.append(flat, 0.0)\n",
        "",
        "a lone Weierstrass coordinate rounds as it does in a larger call",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "_replaces = np.greater_equal",
        "_replaces = np.greater",
        "a trial that ties its target replaces it",
    ),
    Mutant(
        "src/sqgde/core.py",
        "fit = X[: self.t_max - self.used]",
        "fit = X[: self.t_max - self.used + 1]",
        "a batch cut by the budget evaluates only the rows that fit",
    ),
    Mutant(
        "src/sqgde/core.py",
        "i = bisect_right(self.points, -target, key=lambda p: -p[1])",
        "i = bisect_left(self.points, -target, key=lambda p: -p[1])",
        "a run reaches its target only strictly below it",
    ),
    Mutant(
        "src/sqgde/metrics.py",
        "((1.0 - p_s) / p_s) * t_max",
        "(1.0 - p_s) * t_max",
        "ERT charges each failed run's budget per success",
    ),
    Mutant(
        "src/sqgde/metrics.py",
        "_RSE_BLOCK = 12_000",
        "_RSE_BLOCK = 6_000",
        "the RSE block split is pinned by the golden targets",
    ),
    Mutant(
        "src/sqgde/core.py",
        'key = "|".join(str(p) for p in (master_seed, *parts))',
        'key = ",".join(str(p) for p in (master_seed, *parts))',
        "derived seeds are pinned across versions of the code",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "    take[np.arange(n), j_rand] = True\n",
        "",
        "binomial crossover always takes the donor gene at j_rand",
    ),
    Mutant(
        "src/sqgde/core.py",
        "return np.minimum(np.maximum(x, self.lower), self.upper)",
        "return np.maximum(x, self.lower)",
        "clip keeps a point inside the upper bound",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "raw = raw * (1.0 + 0.4 * np.abs(rng.standard_normal(x.shape[:-1])))",
        "raw = raw * (1.0 + 0.4 * rng.standard_normal(x.shape[:-1]))",
        "noise only ever scales a value up",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "b, c = idx[:, 0::2], idx[:, 1::2]",
        "b, c = idx[:, :w], idx[:, w:]",
        "an SQG pair is two successive members of one draw",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "return ((cols >= start) & (cols < end)) | (cols < end - d)",
        "return (cols >= start) & (cols < end)",
        "an exponential crossover block wraps round to the front",
    ),
    Mutant(
        "src/sqgde/algos.py",
        '"best2bin": 6,',
        '"best2bin": 5,',
        "best2bin needs the target, four drawn members and the best",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "if math.isfinite(norm) and norm > 0.0:",
        "if norm > 0.0:",
        "run_sqg never steps on a non-finite estimate",
    ),
    Mutant(
        "src/sqgde/core.py",
        "            points.append((self.used, self.best_so_far))\n",
        "            pass\n",
        "a trace closes on the run's final evaluation count",
    ),
    Mutant(
        "src/sqgde/metrics.py",
        "np.fmin.reduce",
        "np.minimum.reduce",
        "a NaN value never counts as the random-search best",
    ),
    Mutant(
        "src/sqgde/stats.py",
        "if n <= EXACT_CUTOFF:",
        "if n < EXACT_CUTOFF:",
        "n = 20 still takes the exact p",
    ),
    Mutant(
        "src/sqgde/stats.py",
        "tie_counts)) / 48.0",
        "tie_counts)) / 24.0",
        "the normal approximation's tie correction",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "w[dead] = np.eye(k)[np.argmin(sq_dists[dead], axis=-1)]",
        "w[dead] = 1.0 / k",
        "a point far from every component takes the nearest one's value",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "w = np.exp(-sq_dists / (2.0 * X.shape[-1] * sigma2))",
        "w = np.exp(-sq_dists / (X.shape[-1] * sigma2))",
        "composition weights are pinned by the golden traces",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "    signs[signs == 0] = 1.0\n",
        "",
        "a zero on R's diagonal keeps its column of Q",
        equivalent="R's diagonal of a standard normal matrix is zero with probability 0",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "if trace.points[-1] == (rec.evals_used, rec.best_fitness):",
        "if True:",
        "a runs.csv row counts only if it equals the last point of its trace",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "table.setdefault(rec[:key_len], rec)",
        "table[rec[:key_len]] = rec",
        "the first row of a key counts, in runs.csv and in rse.csv",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "zip(casts, row, strict=True)",
        "zip(casts, row)",
        "a row with a field too many does not count",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "if rec.evals_used > spec.budget:",
        "if rec.evals_used > spec.budget + 1:",
        "a runs.csv row over the budget is refused",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "reps=max(recorded.reps, spec.reps)",
        "reps=spec.reps",
        "a resume with fewer reps keeps the reps the directory records",
    ),
    Mutant(
        "src/sqgde/harness.py",
        'for field in ("budget", "master_seed")',
        'for field in ("budget",)',
        "a resume under another master seed is refused",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "            _write_csv(rse_path, RSE_COLUMNS, sorted(targets.values()))\n",
        "            if targets != _load_table(rse_path, RseTarget, 2):\n"
        "                _write_csv(rse_path, RSE_COLUMNS, sorted(targets.values()))\n",
        "every call rewrites rse.csv from the rows that count",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "                    fh.flush()\n",
        "",
        "each run's runs.csv row is on disk when the run's work is done, so a killed call keeps it",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "            # Keep only the rows that count, so appended rows start on a fresh line.\n"
        "            _write_csv(runs_path, RUNS_COLUMNS, sorted(records.values()))\n",
        "            pass\n",
        "a call that runs rewrites runs.csv when it starts, so a row appended after a cut one has a line of its own",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "            if with_runs:\n"
        "                _write_csv(runs_path, RUNS_COLUMNS, sorted(records.values()))\n"
        "    return targets",
        "        if with_runs:\n"
        "            _write_csv(runs_path, RUNS_COLUMNS, sorted(records.values()))\n"
        "    return targets",
        "every call ends by rewriting runs.csv from the rows that count, also after an error",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "if key not in cells or rec.seed != run_seed(spec.master_seed, *key):",
        "if key not in cells:",
        "a runs.csv row counts only under the seed its key derives",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "if key not in cells or rec.seed",
        "if rec.seed",
        "a runs.csv row counts only if the spec names its cell",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "        if rec.evals_used > spec.budget:",
        "        if key not in cells:\n            continue\n        if rec.evals_used > spec.budget:",
        "a runs.csv row over the budget is refused also if the spec does not name its cell",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "        targets = {c: targets[c] for c in product([f.label for f in merged.functions], merged.dims)"
        " if c in targets}\n",
        "",
        "an rse.csv target counts only if the merged spec names its cell",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "        if stale := {t.budget for t in targets.values()} - {spec.budget}:",
        "        targets = {c: targets[c] for c in product([f.label for f in merged.functions], merged.dims)"
        " if c in targets}\n"
        "        if stale := {t.budget for t in targets.values()} - {spec.budget}:",
        "an rse.csv target of another budget is refused also if the spec does not name its cell",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "                    path.unlink()\n",
        "                    pass\n",
        "a call that runs removes each trace no counted row names",
    ),
    Mutant(
        "src/sqgde/core.py",
        "    if type(None) in get_args(t):  # T | None\n",
        "    if value is None:\n        return None\n    if type(None) in get_args(t):  # T | None\n",
        "a spec.json null is unset only for a field whose type admits None",
    ),
    Mutant(
        "src/sqgde/core.py",
        'if key not in types and key not in known]',
        'if False]',
        "a spec.json record refuses a key that names no field",
    ),
    Mutant(
        "src/sqgde/harness.py",
        "target.reps == reps",
        "target.reps >= reps",
        "a stored target counts only at exactly the recorded reps",
    ),
    Mutant(
        "src/sqgde/algos.py",
        "    flat[starts + targets] = np.inf  # no row draws its own target\n",
        "",
        "no row draws its own target",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "np.abs(rng.standard_normal(x.shape[:-1]))",
        "np.abs(rng.standard_normal(x.shape[:-1][::-1]).T)",
        "noise draws its factors in the order of the points",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "part[:] = zb.real",
        "part[:] = 0.0",
        "the Weierstrass sum starts at its k = 0 term",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "part += a_k * zb.real",
        "part += a_k * zb.imag",
        "each Weierstrass term is a cosine",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "            zb *= sb\n",
        "",
        "each Weierstrass term's z is the cube of the previous one's",
    ),
    Mutant(
        "src/sqgde/testfuncs.py",
        "_W_BLOCK = 8192",
        "_W_BLOCK = 4096",
        "the Weierstrass kernel works in blocks",
        equivalent="every step is elementwise and the one-element guard follows _W_BLOCK, so no shape gives other bits",
    ),
]


def _tier1(cwd: Path, *args: str) -> bool:
    env = {**os.environ, "PYTHONPATH": "src"}
    run = subprocess.run([*TIER1, *args], cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            sys.exit(f"refused: {m.file}: {m.old!r} occurs {count} times, not once ({m.why})")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if not _tier1(copy):
            sys.exit("refused: tier-1 fails on the unmutated checkout")
        killed, survivors = 0, []
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                dead = not _tier1(copy, f"--ignore={APPLY_CHECK}")  # it fails on every applied mutant
            finally:
                path.write_text(text)
            killed += dead
            verdict = "killed" if dead else "equivalent" if m.equivalent else "SURVIVED"
            print(f"{verdict:10} {time.perf_counter() - start:5.0f} s  {m.file}: {m.why}", flush=True)
            if not dead and not m.equivalent:
                survivors.append(m)
    print(f"killed {killed}/{len(MUTANTS)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
