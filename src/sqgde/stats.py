"""Paired two-sided Wilcoxon signed-rank test.

Zero differences are dropped, tied absolute differences get average ranks,
and the p-value is exact (full enumeration over sign assignments) up to a
cutoff sample size, beyond which a tie-corrected normal approximation with
continuity correction is used. The ranks are computed in numpy, so the
package imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["WilcoxonResult", "wilcoxon_signed_rank", "EXACT_CUTOFF", "ALPHA"]

EXACT_CUTOFF = 20
ALPHA = 0.05


@dataclass(frozen=True)
class WilcoxonResult:
    w_plus: float
    n_effective: int
    p_value: float
    method: str
    significant: bool


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks.

    Equals ``scipy.stats.rankdata(x)``, NaN included: any NaN makes every
    rank NaN.
    """
    if np.isnan(x).any():
        return np.full(x.size, np.nan)
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.r_[True, xs[1:] != xs[:-1]])
    ends = np.r_[starts[1:], xs.size]
    ranks = np.empty(x.size)
    # A tie group at sorted positions start..end-1 holds ranks start+1..end.
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def _exact_two_sided(ranks: np.ndarray, w_plus: float) -> float:
    """Exact p over all 2^n equally likely sign assignments.

    Ranks are halves or integers, so doubling makes them exact integers and
    the rank-sum distribution can be built by integer convolution, which is
    equivalent to enumerating every assignment.
    """
    doubled = [int(round(2.0 * r)) for r in ranks]
    max_sum = sum(doubled)
    counts = [0] * (max_sum + 1)
    counts[0] = 1
    for r in doubled:
        for s in range(max_sum - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    w2 = int(round(2.0 * w_plus))
    total = 1 << len(doubled)
    n_le = sum(counts[: w2 + 1])
    n_ge = sum(counts[w2:])
    return min(2 * min(n_le, n_ge), total) / total


def _normal_approx(d_abs: np.ndarray, w_plus: float, n: int) -> float:
    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # Tie correction: each group of t equal magnitudes removes (t^3 - t) / 48.
    _, tie_counts = np.unique(d_abs, return_counts=True)
    var -= float(np.sum(tie_counts ** 3 - tie_counts)) / 48.0
    sd = math.sqrt(var)
    diff = w_plus - mu
    # Continuity correction shrinks |diff| by one half step toward the mean.
    if diff > 0:
        diff -= 0.5
    elif diff < 0:
        diff += 0.5
    z = diff / sd
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return min(1.0, max(0.0, p))


def wilcoxon_signed_rank(a, b) -> WilcoxonResult:
    """Two-sided test of zero median difference between paired samples.

    Returns the positive rank sum W+, the effective sample size after
    dropping zero differences, the p-value, the method used, and the
    significance verdict at the 0.05 level. With no nonzero differences the
    p-value is 1 by convention. Non-finite input raises ``ValueError``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be 1-d arrays of equal length")
    if a.size < 2:
        raise ValueError("the test needs at least 2 pairs")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired samples must be finite; NaN or infinite values have no rank")
    d = a - b
    d = d[d != 0.0]
    n = int(d.size)
    if n == 0:
        return WilcoxonResult(0.0, 0, 1.0, "exact_enumeration", False)
    d_abs = np.abs(d)
    ranks = _average_ranks(d_abs)
    w_plus = float(np.sum(ranks[d > 0]))
    if n <= EXACT_CUTOFF:
        p = _exact_two_sided(ranks, w_plus)
        method = "exact_enumeration"
    else:
        p = _normal_approx(d_abs, w_plus, n)
        method = "normal_approximation"
    return WilcoxonResult(w_plus, n, p, method, p < ALPHA)
