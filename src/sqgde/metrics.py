"""Budget-aware performance metrics.

Success is defined against a random-search reference: the target value for
a function is the expected best fitness a uniform random sampler reaches
with the same evaluation budget. Expected running time then measures how
many evaluations an algorithm needs, on average, to first beat that
target, penalized for unsuccessful runs.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import RunTrace, make_rng

__all__ = [
    "ErtResult",
    "expected_running_time",
    "RseTarget",
    "estimate_rse_target",
    "best_on_grid",
    "bnfv_on_grid",
]


class ErtResult(NamedTuple):
    """Expected running time against a fitness target: an ert.csv row's last three columns.

    When no run succeeds the true ERT is unbounded; ``value`` then holds
    the lower bound t_max times the number of runs and ``lower_bound`` is True.
    """

    value: float
    lower_bound: bool
    success_rate: float


def expected_running_time(traces: list[RunTrace], f_target: float, t_max: int) -> ErtResult:
    """mean(T_success) + ((1 - p_s) / p_s) * t_max over a batch of runs.

    T for a successful run is the first evaluation index whose best-so-far
    fitness falls strictly below ``f_target``.
    """
    if not traces:
        raise ValueError("at least one trace is required")
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    times = [tr.first_crossing(f_target) for tr in traces]
    successes = [t for t in times if t is not None]
    if not successes:
        return ErtResult(float(t_max * len(traces)), True, 0.0)
    p_s = len(successes) / len(traces)
    value = float(np.mean(successes) + ((1.0 - p_s) / p_s) * t_max)
    return ErtResult(value, False, p_s)


class RseTarget(NamedTuple):
    """Expected best fitness of uniform random search at a given budget: an rse.csv row, its fields the columns."""

    function: str
    dim: int
    budget: int
    reps: int
    value: float


# The most coordinates (rows x D) one objective call of estimate_rse_target
# takes. A (1000, 30) or (1000, 50) batch in one call makes temporaries of
# 240-400 KB, which glibc maps and unmaps on every call. Counted with
# resource.getrusage, equal blocks of 8,000 to 14,000 coordinates take no
# minor fault at D = 30 or 50, and a (1000, 10) batch stays one call.
_RSE_BLOCK = 12_000


@np.errstate(all="ignore")  # once per estimate: an objective that overflows gives inf or NaN, silently
def estimate_rse_target(fn, budget: int, reps: int, seed: int) -> RseTarget:
    """Monte Carlo estimate: mean over reps of (best of ``budget`` uniform draws).

    Each rep draws its whole (budget, D) sample, then evaluates it in equal
    row blocks (their lengths differ by at most one row) of at most
    ``_RSE_BLOCK`` coordinates, in order, so the noise draws of a noisy
    objective follow the sample in the same stream as one whole-batch call
    would make them.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    rng = make_rng(seed)
    space = fn.space
    blocks = -(-budget // max(1, _RSE_BLOCK // space.dim))
    total = 0.0
    for _ in range(reps):
        best = np.inf
        for block in np.array_split(space.sample_uniform(rng, budget), blocks):
            best = np.fmin.reduce(np.asarray(fn(block, rng), dtype=float), initial=best)  # NaN never counts as best
        total += float(best)
    return RseTarget(fn.label, space.dim, int(budget), int(reps), total / reps)


def best_on_grid(trace: RunTrace, grid) -> np.ndarray:
    """The best-so-far after each evaluation count of ``grid`` (inf before the first point), by one search."""
    points = np.fromiter(chain.from_iterable(trace.points), float, 2 * len(trace.points)).reshape(-1, 2)
    bests = np.concatenate(([np.inf], points[:, 1]))
    return bests[np.searchsorted(points[:, 0], np.asarray(grid).astype(int), side="right")]


def bnfv_on_grid(traces: list[RunTrace], f_target: float, grid) -> tuple[bool, np.ndarray]:
    """(normalized, curves): each run's best-so-far on an evaluation grid (piecewise constant), one row per run.

    The rows are divided by ``f_target`` and ``normalized`` is True, unless
    the target is zero or not finite: it has no ratio, so the rows are the
    raw best-so-far values and ``normalized`` is False.
    """
    if not traces:
        raise ValueError("at least one trace is required")
    curves = np.array([best_on_grid(tr, grid) for tr in traces])
    if f_target == 0.0 or not np.isfinite(f_target):
        return False, curves
    with np.errstate(all="ignore"):  # overflow gives inf and inf/inf NaN, as Python floats do, silently
        return True, curves / f_target
