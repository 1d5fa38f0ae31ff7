"""Child process of the untraced benchmark: a set-up, or the timed passes.

    python3 perfbench/iteration.py <src_dir> setup <workload> <seed> <output_dir>
    python3 perfbench/iteration.py <src_dir> passes <workload> <seed> <work_dir> <seconds>

``setup`` measures what a user waits for before the first evaluation:
importing sqgde in a fresh interpreter, building the spec and every
function instance, and creating the output directory; then it times the
reference computation of ``reference.py`` in the same process. ``passes``
repeats the timed pass of ``pipeline.py`` on an empty directory until
``seconds`` have passed (at least three times), and deletes each pass's
files once they are checked. Both print one JSON object as their last
line.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402

MIN_PASSES = 3
SETUP_REFS = 3
# Start no pass after this many seconds, whatever the requested length,
# so one invocation stays inside the three minutes a run may take.
LAST_START_S = 100.0


def setup(workload, seed: int, output_dir: str) -> dict:
    from sqgde.testfuncs import make_test_function
    from workloads import build_spec

    spec = build_spec(workload, seed, output_dir)
    for desc in spec.functions:
        for dim in spec.dims:
            make_test_function(desc, dim=dim)
    Path(spec.output_dir).mkdir(parents=True)
    setup_s = time.perf_counter() - _T0
    # The machine's speed in this very process, just after the set-up; the
    # first call of the reference in a process is slower, hence the median.
    refs = [reference.measure() for _ in range(SETUP_REFS)]
    return {"setup_s": setup_s, "reference_s": statistics.median(refs)}


def passes(workload, seed: int, work_dir: str, seconds: float) -> dict:
    from sqgde import harness
    from pipeline import timed_pass
    from workloads import build_spec

    results = []
    clock = reference.Clock()
    start = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - start < min(seconds, LAST_START_S):
        spec = build_spec(workload, seed, str(Path(work_dir) / f"pass{len(results)}"))
        p = timed_pass(harness, workload, spec, clock, workload.workers)
        shutil.rmtree(spec.output_dir)
        phases = {"rse_s": p.rse, "runs_s": p.runs, "summarize_s": p.summarize}
        results.append(
            {
                **{k: v.seconds for k, v in phases.items()},
                "wall": {k: v.wall_s for k, v in phases.items()},
                "ert_mean": p.ert_mean,
                "failed": p.check.failed,
                "problems": p.check.problems,
                "digest": p.check.digest,
            }
        )
        if not p.check.correct:
            break

    # ru_maxrss is in KiB on Linux. The children's figure is the largest
    # single worker, so the sum is an upper bound on the concurrent peak.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    peak_kib = own + (workload.workers * worker if workload.workers > 1 else 0)
    return {
        "passes": results,
        "reference_s": statistics.median(clock.refs),
        "peak_rss_mb": peak_kib / 1024.0,
        "seconds": time.perf_counter() - start,
    }


def main(argv: list[str]) -> None:
    sys.path.insert(0, argv[0])
    import sqgde  # noqa: F401
    from workloads import WORKLOADS

    mode, workload, seed = argv[1], WORKLOADS[argv[2]], int(argv[3])
    if mode == "setup":
        result = setup(workload, seed, argv[4])
    else:
        result = passes(workload, seed, argv[4], float(argv[5]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
