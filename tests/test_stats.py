import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from sqgde import stats
from sqgde.stats import ALPHA, EXACT_CUTOFF, WilcoxonResult, _average_ranks, wilcoxon_signed_rank


def brute_force_p(d):
    """Two-sided p over all 2^n sign assignments of the ranked |d|."""
    d = np.asarray(d, dtype=float)
    d = d[d != 0.0]
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    sums = [
        sum(r for r, s in zip(ranks, signs) if s)
        for signs in itertools.product((False, True), repeat=len(ranks))
    ]
    n_le = sum(1 for s in sums if s <= w_obs + 1e-12)
    n_ge = sum(1 for s in sums if s >= w_obs - 1e-12)
    total = 2 ** len(ranks)
    return min(2 * min(n_le, n_ge), total) / total


# Integer-valued floats from a range of k + 1 values: small k gives many
# ties, and k = 0 gives all-equal vectors.
tie_heavy_vectors = st.integers(min_value=0, max_value=8).flatmap(
    lambda k: st.lists(st.integers(min_value=0, max_value=k), min_size=1, max_size=60)
)


@given(tie_heavy_vectors)
@settings(max_examples=300, deadline=None)
def test_average_ranks_equal_scipy_rankdata(values):
    x = np.array(values, dtype=float)
    assert np.array_equal(_average_ranks(x), rankdata(x))


def test_package_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import sys, sqgde, sqgde.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_package_import_loads_no_process_pool():
    # The pool is imported only by a run with more than one worker.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    unwanted = ("multiprocessing", "concurrent.futures.process", "logging")
    code = (
        "import sys, sqgde, sqgde.cli; "
        f"print(sorted(m for m in sys.modules if m.startswith({unwanted!r})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_all_positive_n6():
    res = wilcoxon_signed_rank([2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6])
    assert res.w_plus == 21.0
    assert res.n_effective == 6
    assert res.p_value == 0.03125
    assert res.method == "exact_enumeration"
    assert res.significant


def test_perfect_symmetry_pair():
    res = wilcoxon_signed_rank([1.0, 0.0], [0.0, 1.0])
    assert res.w_plus == 1.5
    assert res.p_value == 1.0
    assert not res.significant


def test_identical_samples():
    res = wilcoxon_signed_rank([3.0, 4.0, 5.0], [3.0, 4.0, 5.0])
    assert res.n_effective == 0
    assert res.p_value == 1.0
    assert not res.significant


def test_zeros_are_dropped():
    res = wilcoxon_signed_rank([1.0, 5.0, 9.0], [1.0, 4.0, 8.0])
    assert res.n_effective == 2
    assert res.w_plus == 3.0


def test_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([[1.0]], [[2.0]])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [2.0])


@pytest.mark.parametrize("n", [10, 30])  # exact and normal-approximation paths
def test_non_finite_input_is_refused(n):
    a = np.arange(1.0, n + 1.0)
    b = np.zeros(n)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(np.r_[a[:-1], bad], b)
        with pytest.raises(ValueError, match="finite"):
            wilcoxon_signed_rank(a, np.r_[b[:-1], bad])


def test_exact_matches_brute_force_with_ties():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        a = rng.integers(0, 4, n).astype(float)  # many ties and zeros
        b = rng.integers(0, 4, n).astype(float)
        if np.all(a == b):
            continue
        res = wilcoxon_signed_rank(a, b)
        assert res.p_value == pytest.approx(brute_force_p(a - b), abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_antisymmetry(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 15))
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    fwd = wilcoxon_signed_rank(a, b)
    rev = wilcoxon_signed_rank(b, a)
    n_eff = fwd.n_effective
    assert rev.n_effective == n_eff
    assert rev.w_plus == pytest.approx(n_eff * (n_eff + 1) / 2 - fwd.w_plus)
    assert rev.p_value == pytest.approx(fwd.p_value, abs=1e-12)


def test_exact_and_approx_agree_for_moderate_n(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(15, 21))
        a = rng.standard_normal(n) + 0.3
        b = rng.standard_normal(n)
        exact = wilcoxon_signed_rank(a, b)  # n <= 20 uses enumeration
        with monkeypatch.context() as m:
            m.setattr(stats, "EXACT_CUTOFF", 0)
            approx = wilcoxon_signed_rank(a, b)
        assert exact.method == "exact_enumeration"
        assert approx.method == "normal_approximation"
        assert abs(exact.p_value - approx.p_value) < 0.02


def test_approx_close_to_scipy_for_large_n():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(3)
    a = rng.standard_normal(40) + 0.4
    b = rng.standard_normal(40)
    res = wilcoxon_signed_rank(a, b)
    assert res.method == "normal_approximation"
    ref = scipy_stats.wilcoxon(a, b, correction=True, method="approx")
    assert res.p_value == pytest.approx(ref.pvalue, abs=1e-2)


@pytest.mark.parametrize("n", [25, 40, 100])
def test_approx_tie_correction_equals_scipy(n):
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(11 + n)
    a = np.round(rng.standard_normal(n) + 0.3, 1)
    b = np.round(rng.standard_normal(n), 1)
    d = (a - b)[a != b]
    assert len(np.unique(np.abs(d))) < d.size  # tied magnitudes, so the tie correction has a subject
    res = wilcoxon_signed_rank(a, b)
    assert res.method == "normal_approximation"
    ref = scipy_stats.wilcoxon(a, b, zero_method="wilcox", correction=True, method="approx")
    assert res.p_value == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)


def test_significance_threshold():
    # clearly separated samples are significant, identical ones are not
    strong = wilcoxon_signed_rank(list(range(1, 11)), [0.0] * 10)
    assert strong.significant and strong.p_value < ALPHA
    assert EXACT_CUTOFF == 20
    assert isinstance(strong, WilcoxonResult)
