import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgde.core import (
    BudgetedEvaluator,
    BudgetExhausted,
    Population,
    RunTrace,
    SearchSpace,
    best_index,
    derive_seed,
    init_population,
    make_rng,
)


def sphere(x, rng=None):
    return float(np.sum(np.asarray(x) ** 2))


def test_make_rng_is_deterministic():
    a = make_rng(7).random(10)
    b = make_rng(7).random(10)
    npt.assert_array_equal(a, b)


def test_make_rng_seeds_differ():
    assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))


def test_derive_seed_stable_and_distinct():
    s1 = derive_seed(12345, "run", "de", "sphere", 30, 0)
    s2 = derive_seed(12345, "run", "de", "sphere", 30, 0)
    s3 = derive_seed(12345, "run", "de", "sphere", 30, 1)
    assert s1 == s2
    assert s1 != s3
    assert 0 <= s1 < 2 ** 64


@given(st.integers(min_value=0, max_value=2 ** 63), st.integers(min_value=0, max_value=1000))
def test_derive_seed_in_64_bit_range(master, part):
    s = derive_seed(master, part)
    assert 0 <= s < 2 ** 64


def test_search_space_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        SearchSpace.box(3, 5.0, 5.0)
    with pytest.raises(ValueError):
        SearchSpace.box(2, 1.0, -1.0)


def test_search_space_clip_and_contains():
    space = SearchSpace.box(2, -1.0, 1.0)
    npt.assert_array_equal(space.clip(np.array([2.0, -3.0])), [1.0, -1.0])
    inside, outside = np.array([0.5, -0.5]), np.array([1.5, 0.0])
    assert np.all((space.lower <= inside) & (inside <= space.upper))
    assert not np.all((space.lower <= outside) & (outside <= space.upper))
    assert space.mean_range == 2.0


def test_search_space_sample_within_bounds():
    space = SearchSpace(3, np.array([-2.0, 0.0, 10.0]), np.array([-1.0, 5.0, 11.0]))
    rng = make_rng(0)
    for _ in range(100):
        x = space.sample_uniform(rng)
        assert np.all((space.lower <= x) & (x <= space.upper))


def test_init_population_bounds_and_pending():
    space = SearchSpace.box(2, 0.0, 1.0)
    pop = init_population(space, 3, make_rng(3))
    assert pop.size == 3
    for m in pop.members:
        assert np.all((space.lower <= m.genome) & (m.genome <= space.upper))
        assert m.fitness is None


def test_init_population_same_seed_identical():
    space = SearchSpace.box(4, -3.0, 3.0)
    p1 = init_population(space, 5, make_rng(42))
    p2 = init_population(space, 5, make_rng(42))
    for a, b in zip(p1.members, p2.members):
        npt.assert_array_equal(a.genome, b.genome)


def _pop(fitnesses):
    return Population(np.zeros((len(fitnesses), 1)), fitnesses)


def test_best_index_minimum():
    assert best_index(_pop([3.0, 1.0, 2.0])) == 1


def test_best_index_tie_goes_to_lowest():
    assert best_index(_pop([1.0, 1.0, 2.0])) == 0


def test_best_index_singleton():
    assert best_index(_pop([5.0])) == 0


def test_best_index_rejects_pending():
    pop = _pop([1.0, 2.0])
    pop.members[1].fitness = None
    with pytest.raises(ValueError):
        best_index(pop)


def test_best_index_ranks_non_finite_last():
    pop = init_population(SearchSpace.box(1, 0.0, 1.0), 5, make_rng(0))
    for member, f in zip(pop.members, [float("nan"), 2.0, float("inf"), 1.0, float("-inf")]):
        member.fitness = f
    assert best_index(pop) == 3


def test_evaluator_single_budget():
    ev = BudgetedEvaluator(sphere, 1)
    f = ev.evaluate(np.array([2.0]))
    assert f == 4.0
    assert ev.used == 1
    with pytest.raises(BudgetExhausted):
        ev.evaluate(np.array([0.0]))
    assert ev.used == 1


def test_evaluator_known_optimum():
    ev = BudgetedEvaluator(sphere, 10)
    assert ev.evaluate(np.zeros(3)) == 0.0
    assert ev.best_so_far == 0.0


def test_evaluator_records_strict_improvements_only():
    values = iter([5.0, 5.0, 3.0, 4.0, 1.0])
    ev = BudgetedEvaluator(lambda x, rng: next(values), 5)
    for _ in range(5):
        ev.evaluate(np.zeros(1))
    trace = ev.trace()
    assert trace.points == ((1, 5.0), (3, 3.0), (5, 1.0))
    assert trace.final_evals == 5


def test_evaluator_trace_closes_with_final_state():
    values = iter([5.0, 2.0, 9.0])
    ev = BudgetedEvaluator(lambda x, rng: next(values), 3)
    for _ in range(3):
        ev.evaluate(np.zeros(1))
    trace = ev.trace()
    assert trace.points[-1] == (3, 2.0)
    assert trace.final_evals == 3


def test_run_trace_validation():
    with pytest.raises(ValueError):
        RunTrace(((5, 1.0), (5, 0.5)), 10)
    with pytest.raises(ValueError):
        RunTrace(((1, 1.0), (2, 2.0)), 10)
    with pytest.raises(ValueError):
        RunTrace(((1, 1.0), (20, 0.5)), 10)


def test_run_trace_queries():
    trace = RunTrace(((100, 50.0), (400, 10.0)), 1000)
    assert trace.final_best == 10.0
    assert trace.first_crossing(60.0) == 100
    assert trace.first_crossing(50.0) == 400  # strict: touching does not count
    assert trace.first_crossing(9.0) is None
    assert trace.best_at(99) == float("inf")
    assert trace.best_at(100) == 50.0
    assert trace.best_at(399) == 50.0
    assert trace.best_at(1000) == 10.0
    assert RunTrace((), 0).final_best == float("inf")


def _best_at_scan(points, eval_index):
    best = float("inf")
    for e, f in points:
        if e > eval_index:
            break
        best = f
    return best


def _first_crossing_scan(points, target):
    return next((e for e, f in points if f < target), None)


@given(
    st.lists(st.integers(1, 60), unique=True, max_size=12),
    st.lists(st.sampled_from([-np.inf, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0]), min_size=12, max_size=12),
)
@settings(max_examples=300, deadline=None)
def test_run_trace_lookups_equal_linear_scans(evals, values):
    points = tuple(zip(sorted(evals), sorted(values, reverse=True)))  # ties included
    trace = RunTrace(points, 60)
    for k in range(-1, 62):
        assert trace.best_at(k) == _best_at_scan(points, k)
    for target in [-np.inf, np.inf, np.nan, -1.0, 0.25, 2.0, *values]:
        assert trace.first_crossing(target) == _first_crossing_scan(points, target)


def test_evaluate_batch_stops_at_budget_and_logs_in_row_order():
    ev = BudgetedEvaluator(sphere, 4)
    ev.evaluate(np.array([3.0]))
    values = ev.evaluate_batch(np.array([[4.0], [2.0], [1.0], [0.5], [0.0]]))
    npt.assert_array_equal(values, [16.0, 4.0, 1.0])  # only the rows the budget allows
    assert ev.exhausted
    assert ev.trace().points == ((1, 9.0), (3, 4.0), (4, 1.0))
    assert ev.evaluate_batch(np.zeros((2, 1))).size == 0


def test_evaluate_batch_calls_objectives_with_a_space_once():
    calls = []

    class Batched:
        space = SearchSpace.box(2, -1.0, 1.0)

        def __call__(self, x, rng):
            calls.append(np.shape(x))
            return np.sum(np.asarray(x) ** 2, axis=-1)

    ev = BudgetedEvaluator(Batched(), 10)
    ev.evaluate_batch(np.ones((3, 2)))
    assert calls == [(3, 2)]
    bare = []
    ev = BudgetedEvaluator(lambda x, rng: bare.append(np.shape(x)) or 0.0, 10)
    ev.evaluate_batch(np.ones((3, 2)))
    assert bare == [(2,)] * 3


def test_evaluate_batch_nan_never_improves():
    ev = BudgetedEvaluator(lambda x, rng: float(x[0]), 5)
    ev.evaluate_batch(np.array([[np.nan], [2.0], [np.nan], [1.0]]))
    assert ev.trace().points == ((2, 2.0), (4, 1.0))


@given(
    st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=100)
def test_evaluator_budget_and_monotonicity_property(values, t_max):
    seq = iter(values)
    ev = BudgetedEvaluator(lambda x, rng: next(seq), t_max)
    for _ in values:
        try:
            ev.evaluate(np.zeros(1))
        except BudgetExhausted:
            break
    trace = ev.trace()
    assert trace.final_evals == min(len(values), t_max)
    assert ev.used <= t_max
    fits = [f for _, f in trace.points]
    assert all(a >= b for a, b in zip(fits, fits[1:]))
    if values and trace.points:
        assert trace.final_best == min(values[: trace.final_evals])
