import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqgde import testfuncs
from sqgde.core import SearchSpace, make_rng
from sqgde.testfuncs import (
    BASE_FUNCTIONS,
    ComponentDescriptor,
    CompositionComponent,
    FunctionDescriptor,
    custom_function,
    default_suite,
    make_test_function,
    random_rotation,
    resolve_descriptor,
    suite_by_label,
    _mixture,
    _weierstrass_sum,
)


# --- base landscapes ---------------------------------------------------


def base_eval(kind, z):
    return float(BASE_FUNCTIONS[kind].fn(np.asarray(z, dtype=float)))


def test_base_optima_are_zero():
    for kind, base in BASE_FUNCTIONS.items():
        d = max(base.min_dim, 2)
        z = np.full(d, base.optimum_offset)
        assert base_eval(kind, z) == pytest.approx(0.0, abs=1e-10), kind


def test_sphere_hand_value():
    assert base_eval("sphere", [1.0, 2.0]) == 5.0


def test_rastrigin_hand_value():
    # 20 + (0.25 - 10 cos(pi)) + (0 - 10 cos(0)) = 20 + 10.25 - 10
    z = np.array([0.5, 0.0])
    expected = 10 * 2 + (0.25 - 10 * np.cos(np.pi)) + (0.0 - 10 * np.cos(0.0))
    assert base_eval("rastrigin", z) == pytest.approx(expected, rel=1e-15)
    assert base_eval("rastrigin", z) == pytest.approx(20.25, rel=1e-15)


def test_schwefel12_hand_value():
    # partial sums of (1, 2): 1^2 + 3^2
    assert base_eval("schwefel12", [1.0, 2.0]) == 10.0


def test_elliptic_hand_value():
    assert base_eval("elliptic", [1.0, 1.0]) == pytest.approx(1.0 + 1e6)


def test_rosenbrock_hand_value():
    # z = (0, 0): 100 (0 - 0)^2 + (0 - 1)^2
    assert base_eval("rosenbrock", [0.0, 0.0]) == 1.0


def test_griewank_matches_direct_formula():
    z = np.array([3.0, -4.0, 5.0])
    expected = np.sum(z ** 2) / 4000 - np.prod(np.cos(z / np.sqrt([1, 2, 3]))) + 1
    assert base_eval("griewank", z) == pytest.approx(expected, rel=1e-12)


def test_weierstrass_zero_exactly_at_origin():
    assert base_eval("weierstrass", np.zeros(4)) == 0.0


def test_weierstrass_matches_direct_sum():
    a, b, kmax = 0.5, 3.0, 20
    z = np.array([0.2, -0.3])
    total = 0.0
    for zi in z:
        for k in range(kmax + 1):
            total += a ** k * np.cos(2 * np.pi * b ** k * (zi + 0.5))
    total -= z.size * sum(a ** k * np.cos(np.pi * b ** k) for k in range(kmax + 1))
    assert base_eval("weierstrass", z) == pytest.approx(total, abs=1e-9)


def test_weierstrass_sum_matches_high_precision_reference():
    mpmath = pytest.importorskip("mpmath")
    # A suite coordinate z has |z| <= sqrt(50) (a rotated unit-box offset; a
    # composition divides a 10-wide offset by lam = 10), so u = 2 pi (z + 0.5)
    # stays inside [-50, 50].
    u = np.concatenate([[0.0, np.pi, -np.pi], make_rng(2005).uniform(-50.0, 50.0, 253)])
    with mpmath.workdps(50):
        reference = [
            float(sum(mpmath.mpf(0.5) ** k * mpmath.cos(3**k * mpmath.mpf(x)) for k in range(21)))
            for x in u
        ]
    npt.assert_allclose(_weierstrass_sum(u), reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dim", [2, 10, 30, 50])
def test_weierstrass_exactly_zero_at_optimum_alone_and_in_batch(dim):
    fn = make_test_function(suite_by_label()["shifted_rotated_weierstrass"], dim=dim)
    shift = fn.body[0].shift
    assert fn(shift) == 0.0
    X = fn.space.sample_uniform(make_rng(dim), 7)
    X[3] = shift
    values = fn(X)
    assert values[3] == 0.0
    assert np.all(np.delete(values, 3) > 0.0)


def test_expanded_functions_cyclic_and_zero_at_optimum():
    assert base_eval("griewank_rosenbrock", np.ones(5)) == pytest.approx(0.0, abs=1e-12)
    assert base_eval("schaffer_f6", np.zeros(5)) == pytest.approx(0.0, abs=1e-12)
    # cyclic pairing: a rotation of the coordinates leaves the value unchanged
    z = np.array([0.3, -0.7, 1.1, 0.4])
    rolled = np.roll(z, 1)
    assert base_eval("schaffer_f6", z) == pytest.approx(base_eval("schaffer_f6", rolled), rel=1e-12)


def test_nonnegative_bases_stay_nonnegative():
    rng = make_rng(11)
    for kind in ("sphere", "rastrigin", "ackley", "griewank", "weierstrass"):
        for _ in range(50):
            z = rng.uniform(-5, 5, 6)
            assert base_eval(kind, z) >= 0.0, kind


# --- rotations ----------------------------------------------------------


def test_rotation_d1_is_sign():
    for seed in range(5):
        m = random_rotation(1, make_rng(seed))
        assert m.shape == (1, 1)
        assert abs(m[0, 0]) == pytest.approx(1.0, rel=1e-12)


def test_rotation_refuses_zero_dim():
    with pytest.raises(ValueError, match="dim must be at least 1"):
        random_rotation(0, make_rng(0))


def test_rotation_orthogonality():
    m = random_rotation(10, make_rng(0))
    npt.assert_allclose(m @ m.T, np.eye(10), atol=1e-10)


def test_rotation_preserves_norms():
    m = random_rotation(30, make_rng(1))
    rng = make_rng(2)
    for _ in range(100):
        x = rng.standard_normal(30)
        ratio = np.linalg.norm(m @ x) / np.linalg.norm(x)
        assert abs(ratio - 1.0) < 1e-9


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40)
def test_rotation_orthogonality_property(dim, seed):
    m = random_rotation(dim, make_rng(seed))
    assert np.max(np.abs(m @ m.T - np.eye(dim))) < 1e-10


# --- instances from descriptors ------------------------------------------


def test_shifted_sphere_zero_at_shift():
    desc = FunctionDescriptor(label="f", kind="sphere", seed=5)
    fn = make_test_function(desc, dim=6)
    shift = fn.body[0].shift
    assert np.all((fn.space.lower <= shift) & (shift <= fn.space.upper))
    assert fn(shift) == pytest.approx(0.0, abs=1e-24)


def test_single_body_optimum_equals_bias():
    desc = FunctionDescriptor(label="f", kind="rastrigin", bias=7.5, seed=9)
    fn = make_test_function(desc, dim=4)
    assert fn(fn.body[0].shift) == pytest.approx(7.5, abs=1e-12)


@pytest.mark.parametrize("kind", ["rastrigin", "rosenbrock"])
def test_unshifted_optimum_sits_at_the_origin_with_its_bias(kind):
    desc = FunctionDescriptor(label="f", kind=kind, shifted=False, rotated=True, bias=-3.5, seed=9)
    fn = make_test_function(desc, dim=4)
    npt.assert_array_equal(fn.body[0].shift, np.zeros(4))
    assert fn(np.zeros(4)) == -3.5
    assert np.all(fn(fn.space.sample_uniform(make_rng(1), 20)) > -3.5)


def test_same_descriptor_and_seed_reproduces_instance():
    desc = FunctionDescriptor(label="f", kind="ackley", rotated=True, seed=33)
    f1 = make_test_function(desc, dim=5)
    f2 = make_test_function(desc, dim=5)
    npt.assert_array_equal(f1.body[0].shift, f2.body[0].shift)
    npt.assert_array_equal(f1.body[0].rotation, f2.body[0].rotation)
    x = make_rng(1).uniform(-32, 32, 5)
    assert f1(x) == f2(x)


def test_optimum_on_bounds_pins_components():
    desc = FunctionDescriptor(label="f", kind="ackley", optimum_on_bounds=True, seed=21)
    fn = make_test_function(desc, dim=6)
    shift = fn.body[0].shift
    lo, hi = fn.space.lower, fn.space.upper
    on_edge = (shift == lo) | (shift == hi)
    assert on_edge.any()
    assert np.all((fn.space.lower <= shift) & (shift <= fn.space.upper))


def test_rotated_sphere_matches_unrotated():
    plain = make_test_function(FunctionDescriptor(label="f", kind="sphere", seed=13), dim=8)
    rotated = make_test_function(
        FunctionDescriptor(label="f", kind="sphere", rotated=True, seed=13), dim=8
    )
    # the shift is drawn before the rotation, so both instances share it
    npt.assert_array_equal(plain.body[0].shift, rotated.body[0].shift)
    rng = make_rng(4)
    for _ in range(20):
        x = plain.space.sample_uniform(rng)
        assert rotated(x) == pytest.approx(plain(x), rel=1e-9)


def test_default_bounds_follow_base_convention():
    cases = {"sphere": 100.0, "rastrigin": 5.0, "ackley": 32.0, "griewank": 600.0, "weierstrass": 0.5}
    for kind, half in cases.items():
        fn = make_test_function(FunctionDescriptor(label="f", kind=kind, seed=1), dim=3)
        assert fn.space.lower[0] == -half
        assert fn.space.upper[0] == half


def test_make_test_function_validation():
    with pytest.raises(ValueError):
        make_test_function(FunctionDescriptor(label="f", kind="sphere"))  # no seed
    with pytest.raises(ValueError):
        make_test_function(FunctionDescriptor(label="f", kind="sphere", seed=1))  # no dim
    with pytest.raises(ValueError):
        make_test_function(FunctionDescriptor(label="f", kind="nope", seed=1), dim=3)
    with pytest.raises(ValueError):
        make_test_function(FunctionDescriptor(label="f", seed=1), dim=3)  # neither kind nor composition
    with pytest.raises(ValueError):
        make_test_function(FunctionDescriptor(label="f", kind="rosenbrock", seed=1), dim=1)
    # refused before any draw: Generator.uniform raised only when the first shift was drawn
    wide = FunctionDescriptor(label="f", kind="sphere", bounds=(-1e308, 1e308), seed=1)
    with pytest.raises(ValueError, match=re.escape("f: bounds (-1e+308, 1e+308): upper - lower must be finite")):
        testfuncs.resolve_descriptor(wide, dim=2)


def test_noise_never_reduces_nonnegative_values():
    desc = FunctionDescriptor(label="f", kind="sphere", noisy=True, seed=3)
    noisy = make_test_function(desc, dim=4)
    clean = make_test_function(FunctionDescriptor(label="f", kind="sphere", seed=3), dim=4)
    rng = make_rng(8)
    for _ in range(200):
        x = noisy.space.sample_uniform(rng)
        assert noisy(x, rng) >= clean(x)


def test_noisy_function_requires_rng():
    fn = make_test_function(FunctionDescriptor(label="f", kind="sphere", noisy=True, seed=3), dim=2)
    with pytest.raises(ValueError):
        fn(np.zeros(2))


def test_noise_multiplies_before_bias():
    desc = FunctionDescriptor(label="f", kind="sphere", noisy=True, bias=100.0, seed=3)
    fn = make_test_function(desc, dim=2)
    shift = fn.body[0].shift
    # zero-normalized value at the optimum is 0, so noise has nothing to scale
    assert fn(shift, make_rng(0)) == pytest.approx(100.0, abs=1e-12)


def test_function_rejects_wrong_shape():
    fn = make_test_function(FunctionDescriptor(label="f", kind="sphere", seed=1), dim=3)
    with pytest.raises(ValueError):
        fn(np.zeros(4))


def test_custom_function_wraps_callable():
    space = SearchSpace.box(1, 0.0, 1.0)
    seen = []
    fn = custom_function("line", space, lambda x: seen.append(x.copy()) or float(x[0]))
    assert fn(np.array([0.25])) == 0.25
    assert fn.label == "line"
    # points (R, n, D): one call per point, in C order, and values (R, n)
    X = make_rng(3).uniform(0.0, 1.0, (3, 4, 1))
    seen.clear()
    values = fn(X)
    assert values.shape == (3, 4)
    npt.assert_array_equal(np.array(seen), X.reshape(-1, 1))
    npt.assert_array_equal(values, X[..., 0])


# --- compositions ---------------------------------------------------------


def _component(kind, shift, sigma=1.0, lam=1.0, bias=0.0):
    return CompositionComponent(kind, np.asarray(shift, dtype=float), None, bias, sigma, lam)


def _composition(*comps):
    """A function whose body is the hand-built components; its box plays no part in a value."""
    # Named through the module: pytest would collect a bare Test* name as a test class.
    return testfuncs.TestFunction("f", SearchSpace.box(comps[0].shift.size, -1.0, 1.0), comps)


def _weights(fn, x):
    return _mixture(fn.body, fn.sigma2, np.asarray(x, dtype=float))[0]


def test_weights_at_component_optimum_dominate():
    fn = _composition(
        _component("sphere", [4.0, 4.0], bias=3.0),
        _component("rastrigin", [-4.0, -4.0]),
    )
    w = _weights(fn, [4.0, 4.0])
    assert w[0] > 0.99
    assert fn(np.array([4.0, 4.0])) == pytest.approx(3.0, abs=1e-5)


def test_identical_components_collapse_to_single_value():
    c = _component("rastrigin", [1.0, -2.0])
    fn = _composition(c, c)
    x = np.array([0.5, 0.5])
    assert fn(x) == pytest.approx(c.value(x), rel=1e-12)


def test_midpoint_weights_match_direct_formula():
    shifts = [np.array([2.0, 0.0]), np.array([-2.0, 0.0]), np.array([0.0, 3.0])]
    sigmas = [1.0, 2.0, 0.5]
    fn = _composition(*(_component("sphere", s, sigma=sg) for s, sg in zip(shifts, sigmas)))
    x = np.array([0.0, 0.0])  # midpoint of the first two shifts
    raw = np.array([
        np.exp(-np.sum((x - s) ** 2) / (2 * 2 * sg ** 2)) for s, sg in zip(shifts, sigmas)
    ])
    npt.assert_allclose(_weights(fn, x), raw / raw.sum(), rtol=1e-12)


def test_weights_underflow_falls_back_to_nearest():
    fn = _composition(
        _component("sphere", [1e6, 1e6], sigma=1e-3),
        _component("sphere", [-1e6, -1e6], sigma=1e-3),
    )
    w = _weights(fn, [1.0, 1.0])
    npt.assert_array_equal(w, [1.0, 0.0])
    # any leading shape: each point's weight goes to its own nearest shift
    X = np.array([[[1.0, 1.0], [-1.0, -1.0]], [[-2.0, 0.0], [3.0, 3.0]], [[0.0, 5.0], [-5.0, 0.0]]])
    npt.assert_array_equal(_weights(fn, X), [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, 1]]])


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60)
def test_weights_form_a_simplex(seed):
    rng = make_rng(seed)
    n = int(rng.integers(2, 6))
    d = int(rng.integers(1, 8))
    fn = _composition(*(
        _component("sphere", rng.uniform(-5, 5, d), sigma=float(rng.uniform(0.1, 3.0)))
        for _ in range(n)
    ))
    w = _weights(fn, rng.uniform(-5, 5, d))
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-12


def test_composition_lambda_stretches_component():
    c = _component("sphere", [0.0], lam=2.0)
    # z = (x - o) / lam, so f(2) with lam=2 equals sphere(1)
    assert c.value(np.array([2.0])) == pytest.approx(1.0, rel=1e-12)


# --- descriptors and the default suite -------------------------------------


def test_descriptor_roundtrip():
    desc = FunctionDescriptor(
        label="f",
        composition=[ComponentDescriptor(kind="sphere", sigma=0.5, lam=2.0, bias=1.0)] * 2,
        bounds=(-3.0, 4.0),
        rotated=True,
        noisy=True,
        bias=2.5,
        category="custom",
        seed=77,
    )
    again = FunctionDescriptor.from_dict(desc.to_dict())
    assert again == desc
    assert desc.to_dict()["composition"][0]["lambda"] == 2.0
    # a null is unset where a field can be unset
    record = {"label": "f", "composition": [{"kind": "sphere", "lambda": None}] * 2, "bounds": None, "seed": None}
    unset = FunctionDescriptor("f", composition=[ComponentDescriptor("sphere")] * 2)
    assert FunctionDescriptor.from_dict(record) == unset


@pytest.mark.parametrize(
    "record, unknown",
    [
        ({"label": "f", "kind": "sphere", "rotatd": True, "seed": 1}, "rotatd"),
        ({"label": "f", "composition": [{"kind": "sphere", "sigam": 2.0}]}, "sigam"),
    ],
    ids=["descriptor", "component"],
)
def test_descriptor_refuses_unknown_keys(record, unknown):
    # a misspelt key would otherwise build the function with that field's default
    with pytest.raises(ValueError, match=f"unknown keys \\['{unknown}'\\]"):
        FunctionDescriptor.from_dict(record)


@pytest.mark.parametrize(
    "record, message",
    [
        ({"label": "f", "kind": "sphere", "noisy": "false", "seed": 3}, "noisy must be a JSON bool, got 'false'"),
        ({"label": "f", "kind": "sphere", "rotated": "no", "seed": 3}, "rotated must be a JSON bool, got 'no'"),
        ({"label": "f", "kind": "sphere", "shifted": 1, "seed": 3}, "shifted must be a JSON bool, got 1"),
        ({"label": "f", "kind": "sphere", "seed": 3.9}, "seed must be a JSON int, got 3.9"),
        ({"label": "f", "kind": "sphere", "seed": True}, "seed must be a JSON int, got True"),
        ({"label": "f", "kind": "sphere", "seed": 3, "bias": False}, "bias must be a JSON float, got False"),
        ({"label": "f", "kind": "sphere", "seed": 3, "bounds": [-1, "1"]}, "each of bounds must be a JSON float"),
        ({"label": "f", "kind": 5, "seed": 3}, "kind must be a JSON str, got 5"),
        ({"label": "f", "kind": "sphere", "seed": 3, "category": 1}, "category must be a JSON str, got 1"),
        ({"label": "f", "composition": [{"kind": "sphere", "sigma": "2"}]}, "sigma must be a JSON float, got '2'"),
        ({"label": "f", "composition": [{"kind": "sphere", "lambda": True}]}, "lambda must be a JSON float, got True"),
        # a list field holds a list, and a composition's entries are records
        ({"label": "f", "kind": "sphere", "seed": 3, "bounds": 5}, "function 'f': bounds must be a JSON list, got 5"),
        ({"label": "f", "composition": {"kind": "sphere"}}, "function 'f': composition must be a JSON list, got {"),
        ({"label": "f", "composition": [5, 6]}, "composition component must be a JSON object, got 5"),
        ({"label": "f", "composition": [{"sigma": 2}]}, "composition component: kind must be a JSON str, got None"),
        # a null is refused where a field cannot be unset, not read as its default
        ({"label": "f", "kind": "sphere", "noisy": None, "seed": 3}, "function 'f': noisy must be a JSON bool"),
        ({"label": "f", "kind": "sphere", "seed": 3, "bias": None}, "function 'f': bias must be a JSON float"),
        ({"label": "f", "composition": [{"kind": "sphere", "sigma": None}]}, "component: sigma must be a JSON float"),
    ],
    ids=["bool_string", "bool_word", "bool_number", "int_fraction", "int_bool", "float_bool", "bounds_string",
         "str_number", "category_number", "component_float_string", "component_float_bool", "bounds_number",
         "composition_object", "component_number", "component_without_kind", "null_bool", "null_bias",
         "component_null_sigma"],
)
def test_descriptor_refuses_values_of_another_json_type(record, message):
    # a cast would build another function: bool("false") is True, int(3.9) is 3
    with pytest.raises(ValueError, match=re.escape(message)):
        FunctionDescriptor.from_dict(record)


def test_descriptor_takes_integers_for_float_fields():
    desc = FunctionDescriptor.from_dict(
        {"label": "f", "composition": [{"kind": "sphere", "sigma": 2}, {"kind": "ackley"}], "bounds": [-5, 5]}
    )
    assert desc.bounds == (-5.0, 5.0) and type(desc.composition[0].sigma) is float


def test_suite_roundtrip_through_json():
    # spec.json holds the descriptors inline, and a resume compares them as JSON
    suite = default_suite()
    text = json.dumps([d.to_dict() for d in suite])
    assert [FunctionDescriptor.from_dict(d) for d in json.loads(text)] == suite


def test_default_suite_structure():
    suite = default_suite()
    assert len(suite) == 17
    labels = [d.label for d in suite]
    assert len(set(labels)) == 17
    categories = {d.category for d in suite}
    assert categories == {"unimodal", "multimodal_basic", "multimodal_expanded", "multimodal_hybrid"}
    assert all(d.seed is not None for d in suite)
    assert suite_by_label()["shifted_rotated_rastrigin"].rotated


def test_default_suite_instances_build_and_evaluate():
    rng = make_rng(0)
    for desc in default_suite():
        fn = make_test_function(desc, dim=30)
        x = fn.space.sample_uniform(rng)
        assert np.isfinite(fn(x, rng))


def test_suite_single_body_optima_sit_at_bias():
    for desc in default_suite():
        if desc.composition is not None or desc.noisy:
            continue
        fn = make_test_function(desc, dim=10)
        shift = fn.body[0].shift
        assert fn(shift) == pytest.approx(desc.bias, abs=1e-7), desc.label


# --- the composition kernel against the per-component formula -------------------


def _reference_value(c, x):
    """A component's value as x - shift, / lam, rotation, + offset, each a new array."""
    base = BASE_FUNCTIONS[c.kind]
    z = x - c.shift
    if c.lam != 1.0:
        z = z / c.lam
    if c.rotation is not None:
        z = z @ c.rotation.T
    if base.optimum_offset != 0.0:
        z = z + base.optimum_offset
    return base.fn(z)


def _reference_weights(comps, x):
    X = np.atleast_2d(x)
    sq_dists = np.stack([np.sum((X - c.shift) ** 2, axis=1) for c in comps], axis=1)
    sigmas = np.array([c.sigma for c in comps])
    w = np.exp(-sq_dists / (2.0 * X.shape[1] * sigmas**2))
    total = w.sum(axis=1)
    dead = total <= 0.0
    w /= np.where(dead, 1.0, total)[:, None]
    if dead.any():
        w[np.flatnonzero(dead), np.argmin(sq_dists[dead], axis=1)] = 1.0
    return w[0] if x.ndim == 1 else w


def _reference_compose(comps, x):
    w = _reference_weights(comps, x)
    vals = np.stack([_reference_value(c, x) + c.bias for c in comps], axis=-1)
    return np.sum(w * vals, axis=-1)


def _assert_matches_reference(fn, X):
    # The noiseless value, so that a noisy function's mixture is checked too.
    quiet = replace(fn, noisy=False)
    for x in (X, X[0]):
        assert np.array_equal(_weights(fn, x), _reference_weights(fn.body, x))
        assert np.array_equal(quiet(x), _reference_compose(fn.body, x))
    for c in fn.body:
        assert np.array_equal(c.value(X), _reference_value(c, X))


def _min_dim(desc):
    return max(BASE_FUNCTIONS[c.kind].min_dim for c in resolve_descriptor(desc, dim=50)[2])


@pytest.mark.parametrize(
    "dim,label", [(dim, d.label) for dim in (1, 2, 3, 10, 50) for d in default_suite() if dim >= _min_dim(d)]
)
def test_suite_functions_match_per_component_formula(label, dim):
    fn = make_test_function(suite_by_label()[label], dim=dim)
    for n in (1, 6, 100, 1000):
        X = make_rng(dim * 1000 + n).uniform(fn.space.lower, fn.space.upper, (n, dim))
        if len(fn.body) > 1:
            _assert_matches_reference(fn, X)
        else:
            assert np.array_equal(fn.body[0].value(X), _reference_value(fn.body[0], X))
    # Points (R, n, D) give the stack of R calls on (n, D), bit for bit; two
    # streams seeded alike line up the noise draws, one per point in C order.
    # One-row slices are the call a budget cut of lockstep reps makes. A
    # (2731, 1, 3) stack is 8,193 coordinates, one past a Weierstrass block.
    for R, n in [(7, 6), (7, 1)] + [(2731, 1)] * (dim == 3):
        X = make_rng(dim).uniform(fn.space.lower, fn.space.upper, (R, n, dim))
        stacked, per_slice = make_rng(dim), make_rng(dim)
        values = fn(X, stacked)
        assert values.shape == (R, n)
        assert np.array_equal(values, np.stack([fn(x, per_slice) for x in X]))
        assert stacked.random() == per_slice.random()


def test_hand_built_compositions_match_per_component_formula():
    rng = make_rng(11)
    dim = 7
    fn = _composition(
        _component("rosenbrock", rng.uniform(-5, 5, dim), sigma=0.7, lam=2.5, bias=1.0),
        _component("griewank_rosenbrock", rng.uniform(-5, 5, dim), lam=0.4),
        CompositionComponent("schaffer_f6", rng.uniform(-5, 5, dim), random_rotation(dim, rng), -2.0, 2.0),
        _component("elliptic", rng.uniform(-5, 5, dim), sigma=1.3),
    )
    X = rng.uniform(-5, 5, (50, dim))
    _assert_matches_reference(fn, X)
    # Far from every shift each unnormalized weight underflows to 0, and
    # the nearest component takes weight 1.
    far = 1e4 + X
    w = _weights(fn, far)
    assert set(np.unique(w)) == {0.0, 1.0} and np.all(w.sum(axis=1) == 1.0)
    _assert_matches_reference(fn, far)


@pytest.mark.parametrize("kind", ["griewank_rosenbrock", "schaffer_f6"])
def test_expanded_functions_match_roll_form(kind):
    def roll_form(z):
        nxt = np.roll(z, -1, axis=-1)
        if kind == "schaffer_f6":
            s = z * z + nxt * nxt
            return np.sum(0.5 + (np.sin(np.sqrt(s)) ** 2 - 0.5) / (1.0 + 0.001 * s) ** 2, axis=-1)
        r = 100.0 * (z * z - nxt) ** 2 + (z - 1.0) ** 2
        return np.sum(r * r / 4000.0 - np.cos(r) + 1.0, axis=-1)

    rng = make_rng(5)
    for dim in (2, 3, 10, 50):
        for z in (rng.uniform(-5, 5, dim), rng.uniform(-5, 5, (6, dim))):
            assert np.array_equal(BASE_FUNCTIONS[kind].fn(z), roll_form(z))


# tracemalloc peak of one (1000, 50) call before components shared one
# x - shift, with numpy 2.4 (1.57 and 1.95 MiB). Stacking the K component
# differences into (K, n, D) arrays reads 4 MB and more.
COMPOSITION_PEAK_BYTES = {"hybrid_rotated_noisy": 1_643_040, "hybrid_rotated_mixed": 2_049_240}


@pytest.mark.parametrize("label", sorted(COMPOSITION_PEAK_BYTES))
def test_composition_call_memory_stays_put(label):
    fn = make_test_function(suite_by_label()[label], dim=50)
    X = make_rng(1).uniform(fn.space.lower, fn.space.upper, (1000, 50))
    rng = make_rng(2)
    fn(X, rng)
    tracemalloc.start()
    try:
        fn(X, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * COMPOSITION_PEAK_BYTES[label]
