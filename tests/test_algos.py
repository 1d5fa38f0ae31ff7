import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgde import algos
from sqgde.algos import (
    STRATEGIES,
    DEConfig,
    InsufficientPopulation,
    SQGConfig,
    crossover_binomial,
    crossover_exponential,
    distinct_indices,
    mutate_best2,
    mutate_rand1,
    run_de,
    run_sqg,
    sqg_donor,
    sqg_gradient_estimate,
    sqg_mutant,
)
from sqgde.core import BudgetedEvaluator, Population, SearchSpace, best_index, make_rng, ranked_fitness
from sqgde.metrics import best_on_grid
from sqgde.testfuncs import FunctionDescriptor, custom_function, make_test_function, suite_by_label


def _pop(genomes, fitnesses):
    pop = Population(np.asarray(genomes, dtype=float))
    pop.fitness = ranked_fitness(list(fitnesses))
    return pop


class ScriptedRng:
    """Stand-in stream returning pre-seeded draws, for walkthrough tests.

    Each call pops the next scripted draw and shapes it to the requested size.
    """

    def __init__(self, integers=None, randoms=None, uniforms=None):
        self._integers = list(integers or [])
        self._randoms = list(randoms or [])
        self._uniforms = list(uniforms or [])

    @staticmethod
    def _shaped(value, size):
        return value if size is None else np.asarray(value).reshape(size)

    def integers(self, n, size=None):
        return self._shaped(self._integers.pop(0), size)

    def random(self, size=None):
        return self._shaped(self._randoms.pop(0), size)

    def uniform(self, lo, hi, size=None):
        return self._shaped(self._uniforms.pop(0), size)


# --- configs ---------------------------------------------------------------


def test_de_config_validation():
    with pytest.raises(ValueError):
        DEConfig("unknown")
    with pytest.raises(ValueError):
        DEConfig("rand1exp", F=2.5)
    with pytest.raises(ValueError):
        DEConfig("rand1exp", CR=-0.1)
    with pytest.raises(ValueError):
        DEConfig("rand1exp", pop_size=3)
    with pytest.raises(ValueError):
        DEConfig("best2bin", pop_size=5)
    with pytest.raises(ValueError):
        DEConfig("sqgbin", w=5, pop_size=6)  # needs 2w + 2 = 12
    with pytest.raises(ValueError, match="w must be at least 1"):
        DEConfig("sqgbin", w=0)
    DEConfig("sqgbin", w=5, pop_size=12)


def test_sqg_config_validation():
    with pytest.raises(ValueError):
        SQGConfig(r=0)
    with pytest.raises(ValueError):
        SQGConfig(delta=0.0)
    with pytest.raises(ValueError):
        SQGConfig(step0=-1.0)
    with pytest.raises(ValueError):
        SQGConfig(decay=1.5)
    with pytest.raises(ValueError):
        SQGConfig(warm_start_samples=0)
    # a NaN or infinite delta never leaves the warm start; spec.json cannot hold NaN
    for bad in (dict(delta=np.nan), dict(delta=np.inf), dict(step0=np.nan), dict(step0=np.inf)):
        with pytest.raises(ValueError, match="must be positive and finite"):
            SQGConfig(**bad)


# --- index sampling ----------------------------------------------------------


def test_sample_distinct_forced_support():
    assert sorted(distinct_indices([0], 5, 4, make_rng(0))[0]) == [1, 2, 3, 4]


def test_sample_distinct_insufficient():
    with pytest.raises(InsufficientPopulation):
        distinct_indices([0], 4, 4, make_rng(0))


def test_sample_distinct_property():
    rows = np.arange(1000)
    idx = distinct_indices(rows % 100, 100, 10, make_rng(5))
    assert idx.shape == (1000, 10)
    for row, picked in zip(rows, idx.tolist()):
        assert len(set(picked)) == 10
        assert row % 100 not in picked
        assert all(0 <= i < 100 for i in picked)


# --- mutation -----------------------------------------------------------------


def test_rand1_hand_value():
    pop = _pop([(0, 0), (1, 2), (1, 0), (9, 9)], [1, 2, 3, 4])
    rng = ScriptedRng(randoms=[[0.1, 0.2, 0.3, 0.9]])  # smallest keys: a, b, c = members 0, 1, 2
    npt.assert_allclose(mutate_rand1(pop, 3, 0.8, rng), [0.0, 1.6])


def test_rand1_zero_amplification_returns_a_member():
    rng = make_rng(2)
    pop = _pop([(i, i * 2.0) for i in range(6)], range(6))
    donor = mutate_rand1(pop, 0, 0.0, rng)
    assert any(np.array_equal(donor, m.genome) for m in pop.members[1:])


def test_rand1_duplicate_difference_vanishes():
    pop = _pop([(3, 1), (2, 2), (2, 2), (9, 9)], [1, 2, 3, 4])
    rng = ScriptedRng(randoms=[[0.1, 0.2, 0.3, 0.9]])
    npt.assert_array_equal(mutate_rand1(pop, 3, 1.7, rng), [3.0, 1.0])


def test_best2_hand_value():
    genomes = [(5, 5), (1, 1), (2, 0), (0, 0), (0, 0), (0, 1)]
    pop = _pop(genomes, [50, 0, 10, 11, 12, 13])
    # the target's own key is ignored; the smallest keys pick members 2..5 in order
    rng = ScriptedRng(randoms=[[0.0, 0.8, 0.1, 0.2, 0.3, 0.4]])
    npt.assert_allclose(mutate_best2(pop, 0, 0.5, rng), [2.0, 0.5])


def test_best2_zero_amplification_is_best():
    pop = _pop([(i, -i) for i in range(7)], [5, 3, 0, 8, 9, 1, 7])
    donor = mutate_best2(pop, 6, 0.0, make_rng(0))
    npt.assert_array_equal(donor, pop.members[2].genome)


def test_best2_cancellation():
    genomes = [(9, 9), (1, 1), (2, 3), (0, 0), (2, 3), (0, 0)]
    pop = _pop(genomes, [99, 0, 1, 2, 3, 4])
    # (x_a - x_b) = -(x_c - x_d): a=2, b=3, c=5, d=4
    rng = ScriptedRng(randoms=[[0.0, 0.9, 0.1, 0.2, 0.4, 0.3]])
    npt.assert_allclose(mutate_best2(pop, 0, 0.8, rng), [1.0, 1.0])


# --- quasi-gradient mutation ----------------------------------------------------


def _example_pair():
    return ((np.array([1.0, 0.0]), 2.0), (np.array([0.0, 0.0]), 0.0))


def test_sqg_mutant_hand_value():
    donor = sqg_mutant(np.zeros(2), [_example_pair()], 0.8)
    npt.assert_allclose(donor, [-0.8, 0.0], atol=1e-15)


def test_sqg_mutant_equal_fitness_fallback():
    pair = ((np.array([1.0, 0.0]), 2.0), (np.array([0.0, 0.0]), 2.0))
    donor = sqg_mutant(np.zeros(2), [pair], 0.8)
    npt.assert_allclose(donor, [0.8, 0.0], atol=1e-15)


def test_sqg_mutant_affine_fitness_invariance():
    (xb, yb), (xc, yc) = _example_pair()
    base = sqg_mutant(np.zeros(2), [((xb, yb), (xc, yc))], 0.8)
    shifted = sqg_mutant(np.zeros(2), [((xb, 10 * yb + 3), (xc, 10 * yc + 3))], 0.8)
    npt.assert_allclose(shifted, base, atol=1e-12)
    npt.assert_allclose(base, [-0.8, 0.0], atol=1e-12)


def _random_pairs(rng, w, d):
    pairs = []
    for _ in range(w):
        xb = rng.standard_normal(d)
        xc = xb + rng.standard_normal(d)  # distinct with probability 1
        pairs.append(((xb, float(rng.standard_normal())), (xc, float(rng.standard_normal()))))
    return pairs


def test_sqg_mutant_sign_flip_reflects():
    rng = make_rng(3)
    x_best = rng.standard_normal(4)
    pairs = _random_pairs(rng, 3, 4)
    flipped = [((xb, -yb), (xc, -yc)) for (xb, yb), (xc, yc) in pairs]
    d1 = sqg_mutant(x_best, pairs, 0.8) - x_best
    d2 = sqg_mutant(x_best, flipped, 0.8) - x_best
    npt.assert_allclose(d2, -d1, atol=1e-12)


def test_sqg_mutant_pair_order_invariant():
    rng = make_rng(4)
    x_best = rng.standard_normal(5)
    pairs = _random_pairs(rng, 4, 5)
    donor = sqg_mutant(x_best, pairs, 0.8)
    npt.assert_allclose(sqg_mutant(x_best, pairs[::-1], 0.8), donor, atol=1e-12)


def test_sqg_mutant_step_length_identity():
    rng = make_rng(6)
    for _ in range(200):
        w = int(rng.integers(1, 6))
        pairs = _random_pairs(rng, w, 6)
        x_best = rng.standard_normal(6)
        donor = sqg_mutant(x_best, pairs, 1.0)
        sum_diff = sum(xb - xc for (xb, _), (xc, _) in pairs)
        expected = np.linalg.norm(sum_diff) / w
        assert np.linalg.norm(donor - x_best) == pytest.approx(expected, rel=1e-9)


def test_sqg_mutant_rejects_bad_pairs():
    with pytest.raises(ValueError):
        sqg_mutant(np.zeros(2), [], 0.8)
    same = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        sqg_mutant(np.zeros(2), [((same, 1.0), (same.copy(), 2.0))], 0.8)


def test_sqg_mutant_skips_non_finite_gaps():
    finite = ((np.array([1.0, 0.0]), 2.0), (np.array([0.0, 0.0]), 0.0))
    infinite = ((np.array([0.0, 1.0]), float("inf")), (np.array([0.0, 0.0]), 0.0))
    donor = sqg_mutant(np.zeros(2), [finite, infinite], 1.0)
    # S comes from the finite pair alone; the step length is still the
    # mean difference-vector length over both pairs
    npt.assert_allclose(donor, [-np.sqrt(2.0) / 2.0, 0.0], atol=1e-15)
    nan_pair = ((np.array([0.0, 1.0]), float("nan")), (np.array([0.0, 0.0]), 0.0))
    # no finite pair left: the plain mean-difference step
    npt.assert_allclose(sqg_mutant(np.zeros(2), [infinite, nan_pair], 1.0), [0.0, 1.0], atol=1e-15)


def test_sqg_donor_finite_with_non_finite_members():
    rng = make_rng(12)
    fitness = rng.standard_normal(12)
    fitness[[2, 5]] = np.inf
    fitness[7] = np.nan
    pop = _pop(rng.standard_normal((12, 3)), fitness)
    for target in range(12):
        assert np.all(np.isfinite(sqg_donor(pop, target, best_index(pop), 5, 0.8, rng)))


def test_run_de_survives_nan_objective():
    sphere = _sphere_fn(dim=4)
    fn = custom_function("holes", sphere.space, lambda x: np.nan if x[0] > 0.0 else sphere(x))
    for strategy in STRATEGIES:
        trace = run_de(DEConfig(strategy, pop_size=12, w=2), fn, 300, seed=3)
        assert trace.final_evals == 300
        assert np.isfinite(trace.final_best)
        assert trace.final_best < best_on_grid(trace, [12])[0]


def test_sqg_donor_converged_population_falls_back_to_best():
    genome = np.array([2.0, -1.0])
    pop = _pop([genome] * 8, range(8))
    donor = sqg_donor(pop, 0, best_index(pop), 2, 0.8, make_rng(0), eps_pair=1e-12)
    npt.assert_array_equal(donor, genome)


def test_sqg_donor_uses_distinct_members():
    rng = make_rng(9)
    pop = _pop(rng.standard_normal((12, 3)), rng.standard_normal(12))
    donor = sqg_donor(pop, 4, best_index(pop), 5, 0.8, rng)
    assert donor.shape == (3,)
    assert np.all(np.isfinite(donor))


# --- crossover -------------------------------------------------------------------


def test_binomial_cr_one_copies_donor():
    target, donor = np.zeros(6), np.arange(6.0)
    trial = crossover_binomial(target, donor, 1.0, make_rng(0))
    npt.assert_array_equal(trial, donor)


def test_binomial_cr_zero_single_forced_gene():
    target, donor = np.zeros(6), np.ones(6)
    trial = crossover_binomial(target, donor, 0.0, make_rng(1))
    assert np.sum(trial != target) == 1


def test_binomial_scripted_walkthrough():
    target = np.array([10.0, 20.0, 30.0])
    donor = np.array([-1.0, -2.0, -3.0])
    rng = ScriptedRng(integers=[1], randoms=[[0.7, 0.9, 0.4]])
    trial = crossover_binomial(target, donor, 0.5, rng)
    npt.assert_array_equal(trial, [10.0, -2.0, -3.0])


def test_exponential_cr_zero_single_gene():
    target, donor = np.zeros(5), np.ones(5)
    trial = crossover_exponential(target, donor, 0.0, make_rng(2))
    assert np.sum(trial != target) == 1


def test_exponential_cr_one_copies_donor():
    target, donor = np.zeros(5), np.arange(5.0)
    trial = crossover_exponential(target, donor, 1.0, make_rng(3))
    npt.assert_array_equal(trial, donor)


def test_exponential_scripted_walkthrough():
    target = np.array([1.0, 2.0, 3.0, 4.0])
    donor = np.array([-1.0, -2.0, -3.0, -4.0])
    # the block grows while draws stay below CR: 0.3 grows it, 0.8 stops it
    rng = ScriptedRng(integers=[2], randoms=[[0.3, 0.8, 0.1]])
    trial = crossover_exponential(target, donor, 0.5, rng)
    npt.assert_array_equal(trial, [1.0, 2.0, -3.0, -4.0])


def test_exponential_block_is_cyclic():
    target = np.zeros(4)
    donor = np.ones(4)
    rng = ScriptedRng(integers=[3], randoms=[[0.1, 0.9, 0.2]])
    trial = crossover_exponential(target, donor, 0.5, rng)
    npt.assert_array_equal(trial, [1.0, 0.0, 0.0, 1.0])


@given(
    st.integers(min_value=1, max_value=20),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["binomial", "exponential"]),
)
@settings(max_examples=120)
def test_crossover_gene_provenance(d, cr, seed, kind):
    rng = make_rng(seed)
    target = rng.standard_normal(d)
    donor = target + 1.0  # differs in every gene
    fn = crossover_binomial if kind == "binomial" else crossover_exponential
    trial = fn(target, donor, cr, make_rng(seed + 1))
    from_target = trial == target
    from_donor = trial == donor
    assert np.all(from_target | from_donor)
    assert from_donor.any()  # both rules force at least one donor gene


# --- selection ----------------------------------------------------------------


def _trial_wins(target_fitness, trial_fitness):
    """run_de's selection: its tie rule over the ranked fitness of each (target, trial)."""
    return algos._replaces(ranked_fitness(target_fitness), ranked_fitness(trial_fitness))


def test_greedy_select_rules():
    # (target, trial): a better trial wins, a worse one loses, a tie goes to the trial
    won = _trial_wins([2.0, 1.0, 1.0], [1.0, 2.0, 1.0])
    assert won.tolist() == [True, False, True]


def test_greedy_select_non_finite_ranks_last():
    for bad in (float("nan"), float("inf"), float("-inf")):
        assert _trial_wins(bad, 5.0)
        assert not _trial_wins(5.0, bad)


# --- gradient estimate -----------------------------------------------------------


def test_gradient_estimate_constant_function_is_zero():
    ev = BudgetedEvaluator(lambda x, rng: 3.0, 100)
    xi = sqg_gradient_estimate(ev, np.zeros(4), 5, 1e-3, make_rng(0))
    npt.assert_array_equal(xi, np.zeros(4))
    assert ev.used == 6  # one base point plus r perturbations


def test_gradient_estimate_refuses_bad_settings():
    ev = BudgetedEvaluator(lambda x, rng: 3.0, 100)
    with pytest.raises(ValueError, match="r must be at least 1"):
        sqg_gradient_estimate(ev, np.zeros(2), 0, 1e-3, make_rng(0))
    for delta in (0.0, -1e-3, np.nan, np.inf):
        with pytest.raises(ValueError, match="delta must be positive"):
            sqg_gradient_estimate(ev, np.zeros(2), 2, delta, make_rng(0))
    assert ev.used == 0


def test_gradient_estimate_scripted_1d():
    ev = BudgetedEvaluator(lambda x, rng: 3.0 * float(x[0]), 10)
    rng = ScriptedRng(uniforms=[[0.5]])
    xi = sqg_gradient_estimate(ev, np.array([5.0]), 1, 0.1, rng)
    npt.assert_allclose(xi, [0.75], rtol=1e-9)


def test_gradient_alignment_improves_with_r():
    g = make_rng(70).standard_normal(10)
    fn = lambda x, rng: float(np.dot(g, x))

    def mean_cosine(r, n=300):
        rng = make_rng(71)
        total = 0.0
        for _ in range(n):
            ev = BudgetedEvaluator(fn, r + 1)
            xi = sqg_gradient_estimate(ev, np.zeros(10), r, 1e-3, rng)
            total += np.dot(xi, g) / (np.linalg.norm(xi) * np.linalg.norm(g))
        return total / n

    assert mean_cosine(64) > mean_cosine(4) > 0.0


# --- full runs -------------------------------------------------------------------


def _sphere_fn(dim=5, seed=5):
    return make_test_function(FunctionDescriptor(label="s", kind="sphere", seed=seed), dim=dim)


@pytest.mark.parametrize("strategy", ["rand1exp", "best2bin", "sqgbin"])
def test_run_de_budget_boundary(strategy):
    config = DEConfig(strategy, pop_size=12)
    trace = run_de(config, _sphere_fn(), 12, seed=1)
    assert trace.final_evals == 12


def test_run_de_partial_initialization():
    trace = run_de(DEConfig("rand1exp", pop_size=50), _sphere_fn(), 7, seed=2)
    assert trace.final_evals == 7


def test_run_de_cut_in_its_first_batch_builds_no_member_mask():
    # A (pop_size, pop_size) array is 36 MB at this size, and a run cut in its first batch draws no member.
    fn = _sphere_fn(dim=2)
    tracemalloc.start()
    try:
        trace = run_de(DEConfig("rand1exp", pop_size=6000), fn, 100, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.final_evals == 100
    assert peak < 2_000_000


def _spy(monkeypatch, name):
    """Record the positional arguments of every call to ``algos.<name>``."""
    calls, real = [], getattr(algos, name)
    monkeypatch.setattr(algos, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_sqgbin_draws_members_once_per_generation_on_a_converged_population(monkeypatch):
    # The population converges and its members coincide; a coincident pair is left out, not redrawn.
    calls = _spy(monkeypatch, "distinct_indices")
    trace = run_de(DEConfig("sqgbin"), make_test_function(suite_by_label()["shifted_sphere"], dim=2), 20_000, seed=1)
    assert trace.final_evals == 20_000
    assert len(calls) == (20_000 - 100) // 100


def test_run_de_passes_its_coincidence_threshold_to_the_sqg_kernels(monkeypatch):
    calls = _spy(monkeypatch, "sqg_donors")
    fn = _sphere_fn(dim=3)
    run_de(DEConfig("sqgbin", pop_size=12, w=2), fn, 60, seed=3)
    eps = 1e-12 * fn.space.mean_range
    assert eps > 1e-12 and calls
    assert all(args[7:] == (eps, eps) for args in calls)  # eps_pair, eps_den


@pytest.mark.parametrize("strategy", ["rand1exp", "best2bin", "sqgbin"])
def test_run_de_deterministic(strategy):
    config = DEConfig(strategy, pop_size=14, w=2)
    t1 = run_de(config, _sphere_fn(), 200, seed=9)
    t2 = run_de(config, _sphere_fn(), 200, seed=9)
    assert t1.points == t2.points
    assert t1.final_evals == t2.final_evals


def test_run_de_respects_bounds_implicitly():
    fn = _sphere_fn(dim=3)
    trace = run_de(DEConfig("best2bin", pop_size=10), fn, 150, seed=3)
    assert trace.final_best >= 0.0
    assert trace.final_evals == 150


def test_run_de_improves_over_initialization():
    fn = _sphere_fn(dim=10)
    trace = run_de(DEConfig("sqgbin", pop_size=20, w=3), fn, 600, seed=4)
    assert trace.final_best < best_on_grid(trace, [20])[0]


def test_sqgde_beats_classic_de_on_shifted_sphere():
    fn = make_test_function(
        FunctionDescriptor(label="f", kind="sphere", seed=17), dim=30
    )
    wins = 0
    for s in range(30):
        sqgde = run_de(DEConfig("sqgbin", F=0.8, CR=0.8, w=5, pop_size=100), fn, 1000, seed=1000 + s)
        de = run_de(DEConfig("rand1exp", F=0.8, CR=0.8, pop_size=100), fn, 1000, seed=1000 + s)
        wins += sqgde.final_best < de.final_best
    assert wins >= 26


def test_run_sqg_budget_boundary():
    config = SQGConfig(warm_start_samples=40)
    trace = run_sqg(config, _sphere_fn(), 40, seed=5)
    assert trace.final_evals == 40


def test_run_sqg_deterministic():
    config = SQGConfig(r=3)
    t1 = run_sqg(config, _sphere_fn(), 300, seed=6)
    t2 = run_sqg(config, _sphere_fn(), 300, seed=6)
    assert t1.points == t2.points


def test_run_sqg_never_steps_on_a_non_finite_estimate():
    seen = []

    def holes(x):  # inf on half of every 1e-4 stripe of x[0], so most estimates are not finite
        seen.append(np.array(x))
        return np.inf if (x[0] * 1e4) % 1 > 0.5 else float(x @ x)

    trace = run_sqg(SQGConfig(), custom_function("holes", SearchSpace.box(3, -1.0, 1.0), holes), 400, seed=1)
    assert trace.final_evals == len(seen) == 400
    assert np.isfinite(seen).all()


class _FirstBatch:
    """An objective that keeps the first batch it is called with."""

    def __init__(self, fn):
        self.fn, self.space, self.first = fn, fn.space, None

    def __call__(self, x, rng=None):
        if self.first is None:
            self.first = np.array(x)
        return self.fn(x, rng)


@pytest.mark.parametrize("label", sorted(suite_by_label()))
def test_run_seeded_like_its_function_does_not_start_on_the_shift(label):
    desc = suite_by_label()[label]
    fn = make_test_function(desc, dim=10)
    shift = fn.body[0].shift
    for run, config in ((run_de, DEConfig("rand1exp", pop_size=10)), (run_sqg, SQGConfig(warm_start_samples=10))):
        probe = _FirstBatch(fn)
        run(config, probe, 10, desc.seed)
        assert not np.any(probe.first[0] == shift)


def test_run_sqg_improves_over_warm_start():
    fn = _sphere_fn(dim=10, seed=5)
    config = SQGConfig()
    wins = 0
    for s in range(100):
        trace = run_sqg(config, fn, 1000, seed=2000 + s)
        warm_best = best_on_grid(trace, [config.warm_start_samples])[0]
        wins += trace.final_best < warm_best
    assert wins >= 95


@given(
    st.sampled_from(["rand1exp", "best2bin", "sqgbin", "sqg"]),
    st.integers(min_value=1, max_value=120),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=60, deadline=None)
def test_budget_safety_property(algo, t_max, seed):
    fn = _sphere_fn(dim=3)
    if algo == "sqg":
        trace = run_sqg(SQGConfig(r=2, warm_start_samples=10), fn, t_max, seed)
    else:
        trace = run_de(DEConfig(algo, w=2, pop_size=8), fn, t_max, seed)
    assert trace.final_evals <= t_max
    fits = [f for _, f in trace.points]
    assert all(a >= b for a, b in zip(fits, fits[1:]))
