"""The traced run: per-layer metrics of one workload.

Direct timings of the public functions of each layer come first. Then
passes of the workload's pipeline (``ensure_rse_targets`` ->
``run_benchmark`` -> ``summarize``) run in this process, each on an empty
directory: untraced and traced passes alternate at one worker, then one
untraced pass runs at two workers. All must produce the same result
digest. The first traced pass gives the span-based metrics; the medians of
the others give the tracing overhead and the pool efficiency. Last comes
the projection of the full protocol.

Every timing goes through one ``reference.Clock``: the reference is timed
before and after each timed block, pass phase and projection cell, and the
figure is reported at reference speed. Span times are scaled with the
reference times of the pass they fall in.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from pipeline import timed_pass
from reference import Clock, scale
from tracing import Tracer, traced_harness
from workloads import ALGORITHMS, WORKLOADS, Workload, build_spec

LAYERS = ("harness", "testfuncs", "algos", "metrics", "stats")
POOL_WORKERS = 2
# Untraced/traced rounds for the tracing overhead: at least four, more while
# they fit in twenty seconds (short workloads get more rounds).
MIN_ROUNDS, MAX_ROUNDS, ROUNDS_S = 4, 8, 20.0


def _per_call_s(clock: Clock, call, calls: int, repeats: int = 3) -> float:
    """Median over ``repeats`` blocks of the mean time of one call, at reference speed."""
    block = []
    with clock.interval() as interval:
        for _ in range(repeats):
            t = perf_counter()
            for i in range(calls):
                call(i)
            block.append((perf_counter() - t) / calls)
    return interval.scaled(statistics.median(block))


def _generations(config, budget: int) -> int:
    """Generations (DE) or descent iterations (SQG) a full-budget run starts."""
    from sqgde.algos import DEConfig

    if isinstance(config, DEConfig):
        return math.ceil((budget - config.pop_size) / config.pop_size)
    return math.ceil((budget - config.warm_start_samples) / (config.r + 1))


def _function_pairs() -> list[tuple[str, int, int]]:
    """(label, dim, budget) of every function every workload runs."""
    return [(label, w.dim, w.budget) for w in WORKLOADS.values() for label in w.functions]


def _objective_metrics(clock: Clock, seed: int) -> dict[str, float]:
    from sqgde.core import make_rng
    from sqgde.metrics import estimate_rse_target
    from sqgde.testfuncs import make_test_function, suite_by_label

    suite = suite_by_label()
    out = {}
    for label, dim, budget in _function_pairs():
        fn = make_test_function(suite[label], dim=dim)
        rng = make_rng(seed)
        points = [fn.space.sample_uniform(rng) for _ in range(100)]
        out[f"testfuncs.eval_us.{label}.d{dim}"] = 1e6 * _per_call_s(clock, lambda i: fn(points[i], rng), len(points))
        with clock.interval() as rse:
            estimate_rse_target(fn, budget, 2, seed)
        out[f"metrics.rse_ms_per_rep.{label}.d{dim}"] = 1e3 * rse.seconds / 2
    return out


def _kernel_metrics(clock: Clock, workload: Workload, seed: int) -> dict[str, float]:
    from sqgde import algos
    from sqgde.core import BudgetedEvaluator, SearchSpace, init_population, make_rng
    from sqgde.harness import ALGORITHM_PRESETS
    from sqgde.stats import wilcoxon_signed_rank
    from sqgde.testfuncs import make_test_function, suite_by_label

    rng = make_rng(seed)
    dim = workload.dim
    space = SearchSpace.box(dim, -5.0, 5.0)
    x = space.sample_uniform(rng)

    def constant(genome, stream):
        return 1.0

    evaluator = BudgetedEvaluator(constant, 10**9, rng)
    sqg = ALGORITHM_PRESETS["sqg"].config
    sqgde = ALGORITHM_PRESETS["sqgde"].config
    pop = init_population(space, sqgde.pop_size, rng)
    for member in pop.members:
        member.fitness = float(np.sum(member.genome**2))
    best = algos.best_index(pop)
    eps = 1e-12 * space.mean_range
    n = pop.size
    donor = algos.mutate_rand1(pop, 0, sqgde.F, rng)
    suite = suite_by_label()

    def build_all(i):
        for label in workload.functions:
            make_test_function(suite[label], dim=dim)

    a = rng.standard_normal(100)
    b = rng.standard_normal(100)
    return {
        "testfuncs.build_ms": 1e3 * _per_call_s(clock, build_all, 1, repeats=5) / len(workload.functions),
        "core.evaluate_overhead_us": 1e6 * _per_call_s(clock, lambda i: evaluator.evaluate(x), 20000),
        "core.init_population_ms": 1e3
        * _per_call_s(clock, lambda i: init_population(space, sqgde.pop_size, rng), 50),
        "algos.donor_us.rand1exp": 1e6
        * _per_call_s(clock, lambda i: algos.mutate_rand1(pop, i % n, sqgde.F, rng), 1000),
        "algos.donor_us.best2bin": 1e6
        * _per_call_s(clock, lambda i: algos.mutate_best2(pop, i % n, sqgde.F, rng), 1000),
        "algos.donor_us.sqgbin": 1e6
        * _per_call_s(clock, lambda i: algos.sqg_donor(pop, i % n, best, sqgde.w, sqgde.F, rng, eps, eps), 500),
        "algos.crossover_us.binomial": 1e6
        * _per_call_s(clock, lambda i: algos.crossover_binomial(x, donor, sqgde.CR, rng), 5000),
        "algos.crossover_us.exponential": 1e6
        * _per_call_s(clock, lambda i: algos.crossover_exponential(x, donor, sqgde.CR, rng), 5000),
        "algos.sqg_estimate_overhead_us": 1e6
        * _per_call_s(clock, lambda i: algos.sqg_gradient_estimate(evaluator, x, sqg.r, sqg.delta, rng), 2000),
        "stats.wilcoxon_us.exact_n17": 1e6 * _per_call_s(clock, lambda i: wilcoxon_signed_rank(a[:17], b[:17]), 200),
        "stats.wilcoxon_us.normal_n100": 1e6 * _per_call_s(clock, lambda i: wilcoxon_signed_rank(a, b), 200),
    }


def _protocol_estimate_s(clock: Clock, harness, seed: int) -> float:
    """Projected single-worker seconds of the full protocol and its RSE targets.

    One timed run per (algorithm, function, dim) cell and one timed RSE rep
    per (function, dim), each scaled by the protocol's repetitions.
    """
    from sqgde.core import derive_seed
    from sqgde.metrics import estimate_rse_target
    from sqgde.testfuncs import make_test_function

    spec = harness.default_benchmark_spec()
    seconds = 0.0
    for desc in spec.functions:
        for dim in spec.dims:
            fn = make_test_function(desc, dim=dim)
            with clock.interval() as cell:
                for algo in spec.algorithms:
                    harness.execute_run(algo, fn, spec.budget, harness.run_seed(seed, algo.name, desc.label, dim, 0))
                estimate_rse_target(fn, spec.budget, 1, derive_seed(seed, "rse", desc.label, dim))
            seconds += cell.seconds
    return spec.reps * seconds


def _tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def traced_run(workload: Workload, seed: int, work_dir: Path, spans_path: Path):
    """Per-layer metrics, the checks of every pass, and report lines."""
    from sqgde import harness

    clock = Clock()
    # The direct timings run first and also warm the code paths the passes use.
    m: dict[str, float] = {**_kernel_metrics(clock, workload, seed), **_objective_metrics(clock, seed)}

    def spec(tag):
        return build_spec(workload, seed, str(work_dir / tag))

    # Untraced and traced passes alternate, and which of the two runs first
    # alternates too, so what drift the reference does not take out falls
    # on both sides of the tracing overhead. The first traced pass gives the spans.
    untraced, traced, tracers = [], [], []

    def untraced_pass():
        untraced.append(timed_pass(harness, workload, spec(f"untraced{len(untraced)}"), clock, 1))

    def traced_pass():
        tracers.append(Tracer())
        with traced_harness(harness, tracers[-1]):
            traced.append(timed_pass(harness, workload, spec(f"traced{len(traced)}"), clock, 1, tracers[-1].span))

    start = perf_counter()
    while len(traced) < MIN_ROUNDS or (len(traced) < MAX_ROUNDS and perf_counter() - start < ROUNDS_S):
        for run_pass in (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass):
            run_pass()
    tracer, first = tracers[0], traced[0]
    tracer.write(spans_path)
    files_written, bytes_written = _tree_size(work_dir / "untraced0")
    clock.restart()
    resume = []
    for _ in range(3):
        with clock.interval() as noop:
            harness.run_benchmark(spec("untraced0"), workers=1)
        resume.append(noop.seconds)
    pool = timed_pass(harness, workload, spec("pool"), clock, POOL_WORKERS)
    checks = [p.check for p in (*untraced, *traced, pool)]
    if len({c.digest for c in checks}) != 1:
        checks[-1].problems.append("untraced, traced and pooled passes gave different results")

    def span_s(seconds: float) -> float:
        return scale(seconds, first.reference_s)

    runs = tracer.named("algos.run")
    objective_s = sum(s.objective_s for s in runs)
    run_s = sum(s.duration for s in runs)
    m.update(
        {
            "testfuncs.share": objective_s / run_s,
            "harness.bookkeeping_ms_per_run": 1e3
            * span_s(tracer.named("harness.run_benchmark")[0].duration - run_s)
            / len(runs),
            "harness.summarize_ms": 1e3 * span_s(tracer.named("harness.summarize")[0].duration),
            "harness.resume_noop_ms": 1e3 * statistics.median(resume),
            "harness.files_written": files_written,
            "harness.bytes_written": bytes_written,
            "harness.pool_efficiency": statistics.median(p.runs.seconds for p in untraced)
            / (POOL_WORKERS * pool.runs.seconds),
            "metrics.ert_us_per_cell": 1e6
            * span_s(statistics.mean(s.duration for s in tracer.named("metrics.expected_running_time"))),
            "quality.ert_mean": pool.ert_mean,
            "trace.overhead_pct": 100.0
            * statistics.median(t.total_s / u.total_s - 1.0 for u, t in zip(untraced, traced)),
        }
    )
    for layer, seconds in tracer.self_seconds_by_layer().items():
        if layer in LAYERS:
            m[f"self_ms.{layer}"] = 1e3 * span_s(seconds)
    samples = {}
    for name in ALGORITHMS:
        mine = [s for s in runs if s.run_id.split("/", 1)[0] == name]
        samples[name] = len(mine)
        ms = np.array([1e3 * span_s(s.duration) for s in mine])
        m[f"algos.run_ms.{name}.p50"] = float(np.percentile(ms, 50))
        m[f"algos.run_ms.{name}.p90"] = float(np.percentile(ms, 90))
        gens = _generations(harness.ALGORITHM_PRESETS[name].config, workload.budget) * len(mine)
        m[f"algos.self_ms_per_gen.{name}"] = 1e3 * span_s(sum(s.duration - s.objective_s for s in mine)) / gens
    t = perf_counter()
    m["harness.protocol_est_s"] = _protocol_estimate_s(clock, harness, seed)
    protocol_cost_s = perf_counter() - t
    m["machine.reference_ms"] = 1e3 * statistics.median(clock.refs)

    def phases(passes):
        return ", ".join(f"{p.rse.seconds:.3f}/{p.runs.seconds:.3f}/{p.total_s:.3f}" for p in passes)

    report = [
        f"passes at reference speed (s, rse/runs/total): untraced {phases(untraced)}; traced {phases(traced)};"
        f" {POOL_WORKERS} workers {phases([pool])}",
        f"algos.run_ms samples per algorithm: {samples}",
        f"spans: {len(tracer.spans)} written to {spans_path}",
        f"harness.protocol_est_s is a projection, not a measurement: {m['harness.protocol_est_s']:.0f} s"
        f" at reference speed for the full protocol at one worker, from {protocol_cost_s:.1f} s of timed single runs",
        f"reference: median {m['machine.reference_ms']:.1f} ms over {len(clock.refs)} timings,"
        f" range {1e3 * min(clock.refs):.1f}-{1e3 * max(clock.refs):.1f} ms",
    ]
    return m, checks, report
