"""Reference checks for the batched kernels.

Every batch kernel is compared with a plain per-row formula written out
here, on the same inputs (index arrays, points), with tolerances fixed in
advance: objective values to rtol 1e-12, donors to 1e-12.
"""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import chisquare

from sqgde.algos import (
    InsufficientPopulation,
    best2_donors,
    distinct_indices,
    exponential_masks,
    rand1_donors,
    sqg_donors,
    sqg_steps,
)
from sqgde.core import BudgetedEvaluator, BudgetExhausted, Population, make_rng, ranked_fitness
from sqgde.testfuncs import BASE_FUNCTIONS, default_suite, make_test_function, suite_by_label

RTOL = 1e-12


# --- objectives --------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 10, 50])
@pytest.mark.parametrize("desc", default_suite(), ids=lambda d: d.label)
def test_batch_objective_matches_per_row(desc, dim):
    fn = make_test_function(replace(desc, noisy=False), dim=dim)
    X = fn.space.sample_uniform(make_rng(dim), 25)
    batch = fn(X)
    assert batch.shape == (25,)
    npt.assert_allclose(batch, [fn(x) for x in X], rtol=RTOL, atol=0.0)


def _cyclic_pair_sum(pair_fn, z):
    """The expanded functions as a loop over the cyclic pairs (z_i, z_{i+1})."""
    return sum(pair_fn(z[i], z[(i + 1) % z.size]) for i in range(z.size))


def _griewank_of_rosenbrock(u, v):
    r = 100.0 * (u * u - v) ** 2 + (u - 1.0) ** 2
    return r * r / 4000.0 - np.cos(r) + 1.0


def _schaffer_f6_pair(u, v):
    s = u * u + v * v
    return 0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2


@pytest.mark.parametrize(
    "kind,pair_fn", [("griewank_rosenbrock", _griewank_of_rosenbrock), ("schaffer_f6", _schaffer_f6_pair)]
)
def test_expanded_bases_match_pair_loop(kind, pair_fn):
    Z = make_rng(10).uniform(-3.0, 3.0, (20, 7))
    batch = BASE_FUNCTIONS[kind].fn(Z)
    npt.assert_allclose(batch, [_cyclic_pair_sum(pair_fn, z) for z in Z], rtol=RTOL, atol=0.0)


def test_noisy_objective_draws_one_normal_per_row():
    noisy = make_test_function(suite_by_label()["hybrid_rotated_noisy"], dim=10)
    clean = make_test_function(replace(suite_by_label()["hybrid_rotated_noisy"], noisy=False), dim=10)
    X = noisy.space.sample_uniform(make_rng(1), 7)
    rng, ref = make_rng(2), make_rng(2)
    values = noisy(X, rng)
    z = ref.standard_normal(7)
    assert rng.bit_generator.state == ref.bit_generator.state
    npt.assert_allclose(values, clean(X) * (1.0 + 0.4 * np.abs(z)), rtol=RTOL)


def test_budget_cut_batch_draws_noise_only_for_evaluated_rows():
    fn = make_test_function(suite_by_label()["shifted_schwefel12_noisy"], dim=5)
    rng, ref = make_rng(3), make_rng(3)
    ev = BudgetedEvaluator(fn, 4, rng)
    with pytest.raises(BudgetExhausted):
        ev.evaluate_batch(fn.space.sample_uniform(make_rng(4), 9))
    assert ev.used == 4
    ref.standard_normal(4)
    assert rng.bit_generator.state == ref.bit_generator.state


# --- donors --------------------------------------------------------------------


def _population(seed, n=20, d=6):
    rng = make_rng(seed)
    pop = Population(rng.standard_normal((n, d)))
    pop.fitness = ranked_fitness(rng.standard_normal(n))
    return pop


def test_rand1_and_best2_donors_match_per_row_formula():
    pop = _population(1)
    X, n = pop.genomes, pop.size
    idx = distinct_indices(np.arange(n), n, 4, make_rng(2))
    best = int(np.argmin(pop.fitness))
    rand1 = rand1_donors(X, idx[:, :3], 0.7)
    best2 = best2_donors(X, best, idx, 0.7)
    for i, (a, b, c, d) in enumerate(idx):
        npt.assert_allclose(rand1[i], X[a] + 0.7 * (X[b] - X[c]), rtol=RTOL, atol=RTOL)
        npt.assert_allclose(best2[i], X[best] + 0.7 * ((X[a] - X[b]) + (X[c] - X[d])), rtol=RTOL, atol=RTOL)


def _sqg_reference(x_best, pairs, F, eps_den=0.0):
    """The per-pair quasi-gradient formula, one pair at a time."""
    s = np.zeros_like(x_best)
    sum_diff = np.zeros_like(x_best)
    for (xb, yb), (xc, yc) in pairs:
        diff = xb - xc
        s += ((yb - yc) / np.linalg.norm(diff)) * diff
        sum_diff += diff
    w = len(pairs)
    if np.linalg.norm(s) <= eps_den:
        return x_best + (F / w) * sum_diff
    phi = (np.linalg.norm(sum_diff) / w) / np.linalg.norm(s)
    return x_best - F * phi * s


def _replayed_pairs(n, w, seed):
    """The (b, c) index arrays sqg_donors draws from make_rng(seed) for n rows, each its own target.

    They are one 2 w draw, paired in draw order.
    """
    idx = distinct_indices(np.arange(n), n, 2 * w, make_rng(seed))
    return idx[:, 0::2], idx[:, 1::2]


def test_sqg_donors_match_per_pair_formula():
    pop = _population(3, n=30, d=8)
    X, y = pop.genomes, pop.fitness
    best = int(np.argmin(y))
    # replaying the draw on the same stream gives sqg_donors' pairs
    b, c = _replayed_pairs(pop.size, 5, 4)
    donors = sqg_donors(X, y, np.arange(pop.size), best, 5, 0.8, make_rng(4))
    for i in range(pop.size):
        pairs = [((X[p], y[p]), (X[q], y[q])) for p, q in zip(b[i], c[i])]
        npt.assert_allclose(donors[i], _sqg_reference(X[best], pairs, 0.8), rtol=RTOL, atol=RTOL)


def test_sqg_steps_plain_fallback_matches_per_pair_formula():
    x_best = np.array([1.0, -1.0, 0.5])
    diffs = make_rng(5).standard_normal((1, 3, 3))
    pairs = [((x_best + dv, 4.0), (x_best, 4.0)) for dv in diffs[0]]
    step = sqg_steps(x_best, diffs, np.linalg.norm(diffs, axis=2), np.zeros((1, 3)), 0.8)
    npt.assert_allclose(step[0], _sqg_reference(x_best, pairs, 0.8), rtol=RTOL, atol=RTOL)


def test_sqg_steps_leave_out_pairs_at_or_below_eps_pair():
    eps = 2.0**-20  # a power of two, so that each length below is exact
    lengths = np.array([1.0, eps / 2, eps, 2 * eps])
    diffs = np.zeros((1, 4, 2))
    diffs[0, 0, 0] = 1.0
    diffs[0, 1:, 1] = lengths[1:]
    gaps = np.array([[1.0, 1.0, 1.0, -1.0]])
    donor = sqg_steps(np.zeros(2), diffs, lengths[None], gaps, 0.8, eps_pair=eps)[0]
    # S = (1, 0) + (-1 / (2 eps)) (0, 2 eps): the eps / 2 and eps pairs are left out, the 2 eps pair is used
    s = np.array([1.0, -1.0])
    phi = (np.linalg.norm(diffs[0].sum(axis=0)) / 4) / np.linalg.norm(s)
    npt.assert_allclose(donor, -0.8 * phi * s, rtol=RTOL, atol=0.0)


def test_sqg_donors_draw_members_once_and_keep_coincident_pairs():
    # a population of 24, and one of 2 w + 1 = 11, where each row draws every member but its target
    for n in (24, 11):
        pop = _population(11, n=n, d=5)
        pop.genomes[1::2] = pop.genomes[: n - 1 : 2]  # every member but a last odd one has a twin, so pairs coincide
        X, y = pop.genomes, pop.fitness
        best, eps = int(np.argmin(y)), 1e-12
        donors = sqg_donors(X, y, np.arange(n), best, 5, 0.8, make_rng(12), eps, eps)
        b, c = _replayed_pairs(n, 5, 12)
        diffs = X[b] - X[c]
        dist = np.linalg.norm(diffs, axis=2)
        assert (dist == 0.0).any()  # coincident pairs are drawn, and kept
        # no row draws its target, and a row's 2 w members are distinct
        members = np.concatenate([b, c], axis=1)
        assert not (members == np.arange(n)[:, None]).any()
        assert all(len(set(row)) == 10 for row in members.tolist())
        npt.assert_array_equal(donors, sqg_steps(X[best], diffs, dist, y[b] - y[c], 0.8, eps, eps))


def test_sqg_donors_converged_population_steps_plainly_to_best():
    X = np.tile([2.0, -1.0], (10, 1))
    y = ranked_fitness(np.arange(10.0))
    donors = sqg_donors(X, y, np.arange(10), 0, 2, 0.8, make_rng(7), 1e-12, 1e-12)
    npt.assert_array_equal(donors, X)


# --- index sampling ------------------------------------------------------------------


def test_distinct_indices_rows_distinct_and_exclude_self():
    n, k = 12, 10
    idx = distinct_indices(np.arange(n), n, k, make_rng(8))
    assert idx.shape == (n, k)
    for i, row in enumerate(idx):
        assert len(set(row)) == k
        assert i not in row


def test_distinct_indices_each_role_uniform_over_others():
    n, k, draws = 8, 4, 4000
    rows = np.tile(np.arange(n), draws)
    idx = distinct_indices(rows, n, k, make_rng(9))
    assert not np.any(idx == rows[:, None])
    for target in range(n):
        for role in range(k):
            counts = np.delete(np.bincount(idx[rows == target, role], minlength=n), target)
            assert chisquare(counts).pvalue > 0.001, (target, role, counts)


def _argsort_reference(targets, pop_size, k, rng):
    """The full-sort formulation: a key per column, each row's target inf, the k smallest in key order."""
    keys = rng.random((len(targets), pop_size))
    keys[np.arange(len(targets)), targets] = np.inf
    return np.argsort(keys, axis=1)[:, :k]


@pytest.mark.parametrize("seed", range(6))
def test_distinct_indices_match_full_sort(seed):
    shape_rng = make_rng(100 + seed)
    n, pop = shape_rng.integers(1, 40), shape_rng.integers(2, 101)
    targets = shape_rng.integers(pop, size=n)  # rows may share a target
    for k in range(1, pop):
        rng, twin = make_rng(seed), make_rng(seed)
        npt.assert_array_equal(distinct_indices(targets, pop, k, rng), _argsort_reference(targets, pop, k, twin))
        assert rng.bit_generator.state == twin.bit_generator.state
    with pytest.raises(InsufficientPopulation, match=f"need {pop} distinct indices but only {pop - 1} are available"):
        distinct_indices(targets, pop, pop, make_rng(seed))


class _TiedKeys:
    """A stream whose every key is the same."""

    def random(self, shape):
        return np.full(shape, 0.5)


def test_distinct_indices_ties_go_to_the_lower_column():
    assert distinct_indices([0, 1, 5], 6, 3, _TiedKeys()).tolist() == [[1, 2, 3], [0, 2, 3], [0, 1, 2]]


# --- crossover -------------------------------------------------------------------


def _exponential_reference(n, d, CR, rng):
    """Block length by a running product of the grow draws, membership by a cyclic remainder."""
    start = rng.integers(d, size=n)
    grow = rng.random((n, d - 1)) < CR
    length = 1 + np.cumprod(grow, axis=1).sum(axis=1)
    return (np.arange(d) - start[:, None]) % d < length[:, None]


@pytest.mark.parametrize("CR", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("d", [1, 2, 3, 30])
def test_exponential_masks_match_cyclic_remainder_form(d, CR):
    rng, twin = make_rng(d), make_rng(d)
    for n in (1, 500):
        npt.assert_array_equal(exponential_masks(n, d, CR, rng), _exponential_reference(n, d, CR, twin))
    assert rng.bit_generator.state == twin.bit_generator.state
