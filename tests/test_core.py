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
    ranked_fitness,
)
from sqgde.metrics import best_on_grid
from sqgde.testfuncs import make_test_function, suite_by_label


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
    with pytest.raises(ValueError, match="dim must be at least 1"):
        SearchSpace.box(0, 0.0, 1.0)
    with pytest.raises(ValueError, match="bounds must have shape"):
        SearchSpace(3, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="bounds must have shape"):
        SearchSpace(2, np.zeros((2, 1)), np.ones((2, 1)))


def test_search_space_clip_and_contains():
    space = SearchSpace.box(2, -1.0, 1.0)
    npt.assert_array_equal(space.clip(np.array([2.0, -3.0])), [1.0, -1.0])
    inside, outside = np.array([0.5, -0.5]), np.array([1.5, 0.0])
    assert np.all((space.lower <= inside) & (inside <= space.upper))
    assert not np.all((space.lower <= outside) & (outside <= space.upper))
    assert space.mean_range == 2.0


def test_search_space_clip_equals_np_clip():
    # zero bounds of both signs, below and above
    lower = np.array([0.0, -0.0, -1.0, -1.0, -2.0, 1.0])
    upper = np.array([1.0, 1.0, 0.0, -0.0, 2.0, 3.0])
    space = SearchSpace(6, lower, upper)
    rows = np.array([
        [np.nan, -0.0, -0.0, 0.0, np.inf, -np.inf],
        [-0.0, 0.0, 0.5, -0.0, -3.0, 2.0],
        [0.0, np.nan, -1.0, np.nan, -np.inf, np.nan],
        [2.0, -5.0, 7.0, -0.0, 0.0, 1.0],
    ])
    for x in (rows, rows[1], rows[2]):
        got, want = space.clip(x), np.clip(x, space.lower, space.upper)
        npt.assert_array_equal(got, want)  # NaN where np.clip gives NaN
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_search_space_sample_within_bounds():
    space = SearchSpace(3, np.array([-2.0, 0.0, 10.0]), np.array([-1.0, 5.0, 11.0]))
    rng = make_rng(0)
    for _ in range(100):
        x = space.sample_uniform(rng)
        assert np.all((space.lower <= x) & (x <= space.upper))


def test_search_space_refuses_a_width_that_overflows():
    # The fill would sample inf where Generator.uniform raised. The suite turns
    # warnings into errors, so the check raises no RuntimeWarning either.
    for lower, upper in ((-1e308, 1e308), (-np.inf, 0.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="upper - lower must be finite per axis"):
            SearchSpace.box(2, lower, upper)
    with pytest.raises(ValueError, match="upper - lower must be finite per axis"):
        SearchSpace(2, np.array([0.0, -1e308]), np.array([1.0, 1e308]))  # one axis
    widest = SearchSpace.box(3, -8.9e307, 8.9e307)
    assert np.all(np.abs(widest.sample_uniform(make_rng(1), 100)) <= 8.9e307)


def test_records_holding_arrays_compare_by_identity():
    # Field-wise equality would compare the bound arrays as a truth value and raise.
    space = SearchSpace.box(3, -1.0, 1.0)
    assert space == space and space != SearchSpace.box(3, -1.0, 1.0)
    fn = make_test_function(suite_by_label()["hybrid_rotated"], dim=3)
    keyed = {space: "space", fn: "function", fn.body[0]: "component"}
    assert [keyed[space], keyed[fn], keyed[fn.body[0]]] == ["space", "function", "component"]
    assert fn != make_test_function(suite_by_label()["hybrid_rotated"], dim=3)


def _boxes(rng, dim, count):
    """``count`` boxes of ``dim`` axes: per-axis bounds, signed zeros, widths from one ulp to 2e307."""
    for _ in range(count):
        lower = rng.choice([-1.0, 1.0], dim) * 10.0 ** rng.uniform(-5.0, 306.0, dim)
        lower[rng.random(dim) < 0.1] = -0.0
        lower[rng.random(dim) < 0.1] = 0.0
        upper = lower + np.minimum(10.0 ** rng.uniform(-12.0, 307.5, dim), 2e307)
        one_ulp = rng.random(dim) < 0.2
        upper[one_ulp] = np.nextafter(lower[one_ulp], np.inf)
        yield SearchSpace(dim, lower, np.maximum(upper, np.nextafter(lower, np.inf)))


@pytest.mark.parametrize("dim", [1, 2, 10, 30, 50, 100])
def test_sample_uniform_is_generator_uniform_bit_for_bit(dim):
    for k, space in enumerate(_boxes(make_rng(dim), dim, 50)):
        for n in (None, 1, 7, 1000):
            seed = derive_seed(dim, k, n)
            ours, numpy_s = make_rng(seed), make_rng(seed)
            got = space.sample_uniform(ours, n)
            want = numpy_s.uniform(space.lower, space.upper, None if n is None else (n, dim))
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (dim, k, n)
            assert ours.random() == numpy_s.random()  # both streams left at the same position


def test_init_population_bounds_and_pending():
    space = SearchSpace.box(2, 0.0, 1.0)
    pop = init_population(space, 3, make_rng(3))
    assert pop.size == 3
    for m in pop.members:
        assert np.all((space.lower <= m.genome) & (m.genome <= space.upper))
        assert m.fitness == np.inf  # ranked worst until evaluated


def test_init_population_same_seed_identical():
    space = SearchSpace.box(4, -3.0, 3.0)
    p1 = init_population(space, 5, make_rng(42))
    p2 = init_population(space, 5, make_rng(42))
    for a, b in zip(p1.members, p2.members):
        npt.assert_array_equal(a.genome, b.genome)


def test_population_refusals():
    with pytest.raises(ValueError, match="genomes must be an"):
        Population(np.zeros(3))
    with pytest.raises(ValueError, match="genomes must be an"):
        Population(np.zeros((2, 3, 1)))
    with pytest.raises(ValueError, match="pop_size must be at least 1"):
        init_population(SearchSpace.box(2, 0.0, 1.0), 0, make_rng(0))


def _pop(fitnesses):
    pop = Population(np.zeros((len(fitnesses), 1)))
    pop.fitness = ranked_fitness(fitnesses)
    return pop


def test_best_index_minimum():
    assert best_index(_pop([3.0, 1.0, 2.0])) == 1


def test_best_index_tie_goes_to_lowest():
    assert best_index(_pop([1.0, 1.0, 2.0])) == 0


def test_best_index_singleton():
    assert best_index(_pop([5.0])) == 0


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


def test_evaluator_refusals():
    for t_max in (0, -1):
        with pytest.raises(ValueError, match="t_max must be at least 1"):
            BudgetedEvaluator(sphere, t_max)

    class Batched:
        space = SearchSpace.box(2, -1.0, 1.0)

        def __call__(self, X, rng=None):
            return np.zeros((len(X), 1))  # one column too many

    with pytest.raises(ValueError, match=r"objective returned shape \(3, 1\) for 3 points"):
        BudgetedEvaluator(Batched(), 10).evaluate_batch(np.zeros((3, 2)))


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
    for points in (((5, 10.0), (7, np.nan), (9, 20.0)), ((5, np.nan),), ((5, 10.0), (7, np.nan))):
        with pytest.raises(ValueError, match="non-increasing"):
            RunTrace(points, 9)


def test_run_trace_queries():
    trace = RunTrace(((100, 50.0), (400, 10.0)), 1000)
    assert trace.final_best == 10.0
    assert trace.first_crossing(60.0) == 100
    assert trace.first_crossing(50.0) == 400  # strict: touching does not count
    assert trace.first_crossing(9.0) is None
    assert best_on_grid(trace, [99, 100, 399, 1000]).tolist() == [np.inf, 50.0, 50.0, 10.0]
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
    assert best_on_grid(trace, range(-1, 62)).tolist() == [_best_at_scan(points, k) for k in range(-1, 62)]
    for target in [-np.inf, np.inf, np.nan, -1.0, 0.25, 2.0, *values]:
        assert trace.first_crossing(target) == _first_crossing_scan(points, target)


def test_evaluate_batch_stops_at_budget_and_logs_in_row_order():
    ev = BudgetedEvaluator(sphere, 4)
    ev.evaluate(np.array([3.0]))
    with pytest.raises(BudgetExhausted):
        ev.evaluate_batch(np.array([[4.0], [2.0], [1.0], [0.5], [0.0]]))
    assert ev.used == 4 and ev.exhausted  # only the rows the budget allows
    assert ev.trace().points == ((1, 9.0), (3, 4.0), (4, 1.0))
    with pytest.raises(BudgetExhausted):  # a spent budget evaluates nothing
        ev.evaluate_batch(np.zeros((2, 1)))
    assert ev.used == 4


class _Recorder:
    """An objective that records every row it is given; batched if it carries ``fn``'s space."""

    def __init__(self, fn, batched):
        self.fn, self.rows = fn, []
        if batched:
            self.space = fn.space

    def __call__(self, x, rng):
        self.rows += np.reshape(x, (-1, np.shape(x)[-1])).tolist()
        return self.fn(x, rng)


_NOISY = make_test_function(suite_by_label()["shifted_schwefel12_noisy"], dim=3)


@settings(max_examples=60, deadline=None)
@given(
    noisy=st.booleans(),
    t_max=st.integers(1, 40),
    sizes=st.lists(st.integers(0, 15), min_size=1, max_size=6),
)
def test_evaluate_batch_spends_exactly_the_budget(noisy, t_max, sizes):
    """Each batch evaluates the rows that fit, as one-by-one calls would, and raises if any is left."""
    points = make_rng(1)
    objective = _Recorder(_NOISY, batched=True) if noisy else _Recorder(sphere, batched=False)
    rng, ref_rng = make_rng(2), make_rng(2)
    ev = BudgetedEvaluator(objective, t_max, rng)
    ref = BudgetedEvaluator(objective.fn, t_max, ref_rng)  # one row per call
    evaluated = []
    for n in sizes:
        batch, fits = points.uniform(-50.0, 50.0, (n, 3)), min(n, t_max - ev.used)
        if fits < n:
            with pytest.raises(BudgetExhausted):
                ev.evaluate_batch(batch)
        else:
            assert ev.evaluate_batch(batch).shape == (n,)
        for x in batch[:fits]:
            ref.evaluate(x)
        evaluated += batch[:fits].tolist()
        assert objective.rows == evaluated  # only the rows that fit, in order
        assert ev.used == len(evaluated) <= t_max
        assert ev.trace() == ref.trace()
        assert rng.bit_generator.state == ref_rng.bit_generator.state  # noise drawn for those rows only


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
