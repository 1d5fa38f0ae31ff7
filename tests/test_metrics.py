import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqgde.core import RunTrace, SearchSpace, make_rng
from sqgde.metrics import (
    RseTarget,
    best_on_grid,
    bnfv_on_grid,
    estimate_rse_target,
    expected_running_time,
)
from sqgde import metrics
from sqgde.testfuncs import FunctionDescriptor, custom_function, make_test_function, suite_by_label


def _success_trace(at, value=0.0, t_max=1000):
    return RunTrace(((at, value),), t_max)


def _failure_trace(t_max=1000):
    return RunTrace(((1, 100.0),), t_max)


def test_ert_all_successes_is_mean_time():
    traces = [_success_trace(t) for t in (100, 200, 300)]
    res = expected_running_time(traces, 1.0, 1000)
    assert res.value == 200.0
    assert not res.lower_bound
    assert res.success_rate == 1.0


def test_ert_half_successes_adds_penalty():
    traces = [_success_trace(300), _failure_trace()]
    res = expected_running_time(traces, 1.0, 1000)
    assert res.value == 300.0 + (0.5 / 0.5) * 1000.0
    assert res.success_rate == 0.5


def test_ert_no_success_is_lower_bound():
    traces = [_failure_trace() for _ in range(100)]
    res = expected_running_time(traces, 1.0, 1000)
    assert res.lower_bound
    assert res.value == 100_000.0
    assert res.success_rate == 0.0


def test_ert_success_is_strict():
    trace = RunTrace(((10, 5.0),), 100)
    hit = expected_running_time([trace], 5.0, 100)
    assert hit.lower_bound  # equality does not cross the target
    assert expected_running_time([trace], 5.0 + 1e-9, 100).value == 10.0


def test_ert_rejects_empty_and_bad_budget():
    with pytest.raises(ValueError):
        expected_running_time([], 1.0, 100)
    with pytest.raises(ValueError):
        expected_running_time([_failure_trace()], 1.0, 0)


@given(
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=999), st.floats(min_value=0, max_value=100)),
        min_size=1,
        max_size=20,
    ),
    st.floats(min_value=0, max_value=120),
    st.floats(min_value=0, max_value=50),
)
@settings(max_examples=120)
def test_ert_monotone_in_target(points, target, slack):
    traces = [RunTrace(((e, f),), 1000) for e, f in points]
    tight = expected_running_time(traces, target, 1000)
    loose = expected_running_time(traces, target + slack, 1000)
    assert loose.value <= tight.value
    assert loose.success_rate >= tight.success_rate


def test_rse_uniform_line_order_statistic():
    space = SearchSpace.box(1, 0.0, 1.0)
    fn = custom_function("line", space, lambda x: float(x[0]))
    target = estimate_rse_target(fn, budget=3, reps=20_000, seed=1)
    # E[min of 3 uniforms] = 1 / 4
    assert target.value == pytest.approx(0.25, abs=0.02)
    assert target[:4] == ("line", 1, 3, 20_000)


def test_rse_constant_function_is_exact():
    space = SearchSpace.box(2, -1.0, 1.0)
    fn = custom_function("const", space, lambda x: 7.25)
    assert estimate_rse_target(fn, 1, 50, seed=0).value == 7.25


def test_rse_nan_never_counts_as_best():
    space = SearchSpace.box(2, -1.0, 1.0)
    fn = custom_function("holes", space, lambda x: np.nan if x[0] > 0.5 else float(x @ x))
    # replay each rep's whole sample on the same stream; the objective draws nothing from it
    rng, bests = make_rng(3), []
    for _ in range(4):
        values = fn(space.sample_uniform(rng, 50))
        assert np.isnan(values).any()
        bests.append(float(np.nanmin(values)))
    target = estimate_rse_target(fn, 50, 4, seed=3)
    assert np.isfinite(target.value)
    assert target.value == sum(bests) / 4


def test_rse_deterministic_in_seed():
    fn = make_test_function(FunctionDescriptor(label="f", kind="rastrigin", seed=2), dim=5)
    a = estimate_rse_target(fn, 50, 20, seed=9)
    b = estimate_rse_target(fn, 50, 20, seed=9)
    assert a == b


class _Calls:
    """An objective that records the rows of each call."""

    def __init__(self, fn):
        self.fn, self.space, self.label, self.rows = fn, fn.space, fn.label, []

    def __call__(self, x, rng=None):
        self.rows.append(len(x))
        return self.fn(x, rng)


@pytest.mark.parametrize("label", ["shifted_sphere", "shifted_rastrigin", "shifted_schwefel12_noisy"])
@pytest.mark.parametrize("dim", [10, 30, 50])
@pytest.mark.parametrize("budget", [997, 1000])
def test_rse_row_blocks_equal_one_whole_batch(label, dim, budget):
    # These kinds make no BLAS call, so a row's value does not depend on its block;
    # the noisy one checks that the noise draws follow the whole sample in order.
    fn = _Calls(make_test_function(suite_by_label()[label], dim=dim))
    rng = make_rng(5)
    bests = [float(np.min(fn.fn(fn.space.sample_uniform(rng, budget), rng))) for _ in range(2)]
    assert estimate_rse_target(fn, budget, 2, seed=5).value == sum(bests) / 2
    assert sum(fn.rows) == 2 * budget and max(fn.rows) - min(fn.rows) <= 1
    assert max(fn.rows) * dim <= metrics._RSE_BLOCK
    assert (len(fn.rows) == 2) == (dim == 10)  # a (1000, 10) batch is one call per rep


def test_rse_validation():
    fn = custom_function("c", SearchSpace.box(1, 0.0, 1.0), lambda x: 0.0)
    with pytest.raises(ValueError):
        estimate_rse_target(fn, 0, 10, seed=0)
    with pytest.raises(ValueError):
        estimate_rse_target(fn, 10, 0, seed=0)


def _bnfv_at_points(trace, value):
    """Normalized best fitness at the trace's own eval indices."""
    normalized, curves = bnfv_on_grid([trace], value, [e for e, _ in trace.points])
    assert normalized is True and curves.shape == (1, len(trace.points))
    return curves[0].tolist()


def test_bnfv_hand_values():
    trace = RunTrace(((100, 50.0), (400, 10.0)), 1000)
    assert _bnfv_at_points(trace, 25.0) == [2.0, 0.4]


def test_bnfv_parity_and_zero():
    assert _bnfv_at_points(RunTrace(((10, 25.0),), 20), 25.0) == [1.0]
    assert _bnfv_at_points(RunTrace(((10, 0.0),), 20), 25.0) == [0.0]


def test_bnfv_zero_target_is_undefined():
    traces = [RunTrace(((10, 1.0),), 20), RunTrace(((5, 3.0), (20, -2.0)), 20)]
    raw = np.array([best_on_grid(tr, [10, 20]) for tr in traces])
    for value in (0.0, np.inf, -np.inf, np.nan):  # a non-finite target has no ratio either
        normalized, curves = bnfv_on_grid(traces, value, [10, 20])
        assert normalized is False
        assert curves.tobytes() == raw.tobytes()  # the raw best-so-far rows, bit for bit


def test_bnfv_refuses_an_empty_cell():
    with pytest.raises(ValueError, match="at least one trace is required"):
        bnfv_on_grid([], 25.0, [10, 20])


def test_bnfv_on_grid_piecewise_constant():
    trace = RunTrace(((100, 50.0), (400, 10.0)), 1000)
    grid = [50, 100, 250, 400, 1000]
    normalized, curves = bnfv_on_grid([trace], 25.0, grid)
    assert normalized is True
    assert curves[0, 0] == np.inf  # before the first recorded point
    np.testing.assert_allclose(curves[0, 1:], [2.0, 2.0, 0.4, 0.4])


@st.composite
def _traces(draw):
    """A valid trace, possibly empty: increasing evaluation indices, non-increasing bests."""
    evals = sorted(draw(st.lists(st.integers(1, 200), unique=True, max_size=12)))
    values = st.floats(allow_nan=False)
    bests = sorted(draw(st.lists(values, min_size=len(evals), max_size=len(evals))), reverse=True)
    return RunTrace(tuple(zip(evals, bests)), draw(st.integers(evals[-1] if evals else 0, 250)))


def _best_at_scan(trace, eval_index):
    """The best of the last point at or before ``eval_index``, inf before the first."""
    return next((f for e, f in reversed(trace.points) if e <= eval_index), np.inf)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_traces(), min_size=2, max_size=4),
    st.lists(st.integers(0, 300), max_size=30),
    st.floats(allow_nan=False, allow_infinity=False).filter(lambda v: v != 0.0),  # tiny, huge and negative targets
    st.booleans(),
)
@example([RunTrace((), 0), RunTrace(((3, 1.0),), 5)], [0, 10], 2.5, False)  # empty trace: inf everywhere
@example(  # before, at and past the points
    [RunTrace(((5, 3.0), (9, -1.0)), 20), RunTrace(((1, 7.0),), 20)], [0, 4, 5, 8, 9, 20, 300], -2.5, True
)
def test_bnfv_on_grid_equals_its_per_point_definition(traces, grid, value, as_array):
    points = np.array(grid) if as_array else grid
    raw = np.array([[_best_at_scan(tr, e) for e in grid] for tr in traces])
    normalized = np.array([[_best_at_scan(tr, e) / value for e in grid] for tr in traces])
    for tr, row in zip(traces, raw):
        assert best_on_grid(tr, points).tobytes() == row.tobytes()
    flag, curves = bnfv_on_grid(traces, value, points)
    assert flag is True and curves.shape == (len(traces), len(grid))
    assert curves.tobytes() == normalized.tobytes()  # one row per trace, in order
    for undefined in (0.0, np.inf, -np.inf, np.nan):
        flag, curves = bnfv_on_grid(traces, undefined, points)
        assert flag is False and curves.shape == raw.shape and curves.tobytes() == raw.tobytes()


def test_rse_noisy_function_sees_noise():
    clean_desc = FunctionDescriptor(label="f", kind="sphere", seed=4)
    noisy_desc = FunctionDescriptor(label="f", kind="sphere", noisy=True, seed=4)
    clean = estimate_rse_target(make_test_function(clean_desc, dim=3), 20, 200, seed=11)
    noisy = estimate_rse_target(make_test_function(noisy_desc, dim=3), 20, 200, seed=11)
    # the multiplicative factor is >= 1, so observed minima cannot improve
    assert noisy.value >= clean.value
