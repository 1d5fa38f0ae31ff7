"""The benchmark's workloads: slices of the paper's protocol matrix.

Every workload runs the four protocol presets. A workload fixes the
function set, the dimension, the budget, the repetitions per cell (which
the harness also uses as the random-search repetitions) and the worker
count. Only the master seed comes from the command line.

This module imports sqgde only inside ``build_spec``, so ``run.py`` can
read the workload table before it knows whether the package is importable.
"""

from __future__ import annotations

from dataclasses import dataclass

ALGORITHMS = ("de", "de2", "sqg", "sqgde")

SUITE = (
    "shifted_sphere",
    "shifted_schwefel12",
    "shifted_rotated_elliptic",
    "shifted_schwefel12_noisy",
    "shifted_rosenbrock",
    "shifted_rotated_griewank",
    "shifted_rotated_ackley_bounds",
    "shifted_rastrigin",
    "shifted_rotated_rastrigin",
    "shifted_rotated_weierstrass",
    "shifted_griewank_rosenbrock",
    "shifted_rotated_schaffer_f6",
    "hybrid_basic",
    "hybrid_rotated",
    "hybrid_rotated_noisy",
    "hybrid_rotated_narrow",
    "hybrid_rotated_mixed",
)


@dataclass(frozen=True)
class Workload:
    name: str
    functions: tuple[str, ...]
    dim: int
    budget: int
    reps: int
    workers: int

    @property
    def runs(self) -> int:
        return len(ALGORITHMS) * len(self.functions) * self.reps

    @property
    def cells(self) -> int:
        return len(ALGORITHMS) * len(self.functions)

    def run_keys(self) -> list[tuple[str, str, int, int]]:
        return [
            (algo, label, self.dim, rep)
            for algo in ALGORITHMS
            for label in self.functions
            for rep in range(self.reps)
        ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Cheap objectives: the optimizer loop (algos, core) does most of the work.
        Workload("de_loop_d30", ("shifted_sphere", "shifted_rastrigin"), 30, 1000, 1, 1),
        # Composition, transcendental and Python-loop kernels plus the noise path:
        # the objective (testfuncs) does most of the work.
        Workload(
            "objective_heavy_d50",
            ("hybrid_rotated_noisy", "hybrid_rotated_mixed", "shifted_rotated_weierstrass"),
            50,
            1000,
            1,
            1,
        ),
        # Many short runs over the whole suite through the process pool: per-task
        # harness costs (rebuilds, trace files, flushed rows) weigh most here.
        Workload("suite_sweep_d10", SUITE, 10, 300, 1, 2),
    )
}


def build_spec(workload: Workload, seed: int, output_dir: str):
    """The harness spec of one workload under one master seed."""
    from sqgde.harness import ALGORITHM_PRESETS, BenchmarkSpec
    from sqgde.testfuncs import suite_by_label

    suite = suite_by_label()
    return BenchmarkSpec(
        algorithms=[ALGORITHM_PRESETS[name] for name in ALGORITHMS],
        functions=[suite[label] for label in workload.functions],
        dims=[workload.dim],
        budget=workload.budget,
        reps=workload.reps,
        master_seed=seed,
        output_dir=output_dir,
    )
