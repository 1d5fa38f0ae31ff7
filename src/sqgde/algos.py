"""Differential evolution variants and stochastic quasi-gradient descent.

Three DE mutation strategies are supported under one generational loop:

* ``rand1exp``: difference-vector mutation around a random member with
  exponential crossover (classic DE/rand/1/exp),
* ``best2bin``: two difference vectors around the population best with
  binomial crossover (DE/best/2/bin),
* ``sqgbin``: a quasi-gradient mutant built from fitness differences over
  ``w`` member pairs around the population best, with binomial crossover.

The DE loop is synchronous: every donor of a generation reads only the
previous generation, so a generation is built with whole-array kernels
(all N index draws, donors, crossover masks, one objective call and the
selection at once). The per-member functions (``mutate_rand1``,
``sqg_donor``, ``crossover_binomial``, ...) are one-row calls into the
same kernels.

``run_sqg`` is a standalone normalized quasi-gradient descent with a warm
start drawn from a uniform sample. The evaluator alone ends a run: a
batch that does not fit in the rest of the budget has the rows that fit
evaluated, then raises ``BudgetExhausted``, and the run returns the
evaluator's trace.

A NaN or infinite fitness ranks as +inf (see ``core.ranked_fitness``):
such a member is never the best and always loses greedy selection, and a
quasi-gradient pair with a non-finite fitness gap is left out of the
weighted sum, as is a pair whose two members coincide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetedEvaluator,
    BudgetExhausted,
    Population,
    RngStream,
    RunTrace,
    best_index,
    derive_seed,
    make_rng,
    ranked_fitness,
)

__all__ = [
    "InsufficientPopulation",
    "STRATEGIES",
    "DEConfig",
    "SQGConfig",
    "distinct_indices",
    "rand1_donors",
    "best2_donors",
    "sqg_steps",
    "sqg_donors",
    "mutate_rand1",
    "mutate_best2",
    "sqg_mutant",
    "sqg_donor",
    "binomial_masks",
    "exponential_masks",
    "crossover_binomial",
    "crossover_exponential",
    "sqg_gradient_estimate",
    "run_de",
    "run_sqg",
]


class InsufficientPopulation(ValueError):
    """Not enough distinct members to sample the requested indices."""


STRATEGIES = ("rand1exp", "best2bin", "sqgbin")

_replaces = np.greater_equal  # the selection rule on ranked (target, trial): a trial no worse replaces its target


@dataclass(frozen=True)
class DEConfig:
    """Differential evolution settings.

    ``w`` (number of quasi-gradient pairs) is only used by the ``sqgbin``
    strategy; values between 2 and 5 work well, and high ``w`` should be
    avoided with very small populations because each mutant consumes
    ``2 w`` distinct members.
    """

    strategy: str
    F: float = 0.8
    CR: float = 0.8
    w: int = 5
    pop_size: int = 100

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if not 0.0 <= self.F <= 2.0:
            raise ValueError("F must lie in [0, 2]")
        if not 0.0 <= self.CR <= 1.0:
            raise ValueError("CR must lie in [0, 1]")
        if self.strategy == "sqgbin" and self.w < 1:
            raise ValueError("w must be at least 1")
        # The smallest population: the target, the members the donor draws, and the best it is based on.
        if self.pop_size < (floor := {"rand1exp": 4, "best2bin": 6, "sqgbin": 2 * self.w + 2}[self.strategy]):
            raise ValueError(f"{self.strategy} needs pop_size >= {floor}")


@dataclass(frozen=True)
class SQGConfig:
    """Quasi-gradient descent settings.

    Each iteration spends r + 1 evaluations: one at the current point plus
    one per perturbation. The step length decays geometrically from
    ``step0`` times the mean bound range.
    """

    r: int = 5
    delta: float = 1e-3
    step0: float = 0.015
    decay: float = 0.96
    warm_start_samples: int = 100

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if not 0.0 < self.delta < math.inf:
            raise ValueError("delta must be positive and finite")
        if not 0.0 < self.step0 < math.inf:
            raise ValueError("step0 must be positive and finite")
        if not 0.0 < self.decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        if self.warm_start_samples < 1:
            raise ValueError("warm_start_samples must be at least 1")


def distinct_indices(targets, pop_size: int, k: int, rng: RngStream) -> np.ndarray:
    """k distinct indices in [0, pop_size) per row, none of them the row's target.

    ``targets`` holds each row's target index. Each row draws a uniform key
    per column and takes its k non-target columns with the smallest keys,
    in key order, so every row is a uniform ordered sample without
    replacement. The picks are k argmin passes over the keys, each setting
    its pick to inf, so the cost grows with k; tied keys go to the lower
    column. Raises InsufficientPopulation if k > pop_size - 1.
    """
    if k > pop_size - 1:
        raise InsufficientPopulation(f"need {k} distinct indices but only {pop_size - 1} are available")
    keys = rng.random((len(targets), pop_size))
    flat, starts = keys.reshape(-1), np.arange(len(keys)) * pop_size
    flat[starts + targets] = np.inf  # no row draws its own target
    idx = np.empty((len(keys), k), dtype=np.intp)
    for j in range(k):
        pick = keys.argmin(axis=1)
        idx[:, j] = pick
        pick += starts  # its position in the flat keys
        flat[pick] = np.inf
    return idx


def rand1_donors(X: np.ndarray, idx: np.ndarray, F: float) -> np.ndarray:
    """x_a + F (x_b - x_c) for each row (a, b, c) of the (n, 3) index array."""
    return X[idx[:, 0]] + F * (X[idx[:, 1]] - X[idx[:, 2]])


def best2_donors(X: np.ndarray, best: int, idx: np.ndarray, F: float) -> np.ndarray:
    """x_best + F ((x_a - x_b) + (x_c - x_d)) for each row of the (n, 4) index array."""
    return X[best] + F * ((X[idx[:, 0]] - X[idx[:, 1]]) + (X[idx[:, 2]] - X[idx[:, 3]]))


def sqg_steps(
    x_best: np.ndarray, diffs: np.ndarray, dist: np.ndarray, gaps: np.ndarray, F: float, eps_pair=0.0, eps_den=0.0
) -> np.ndarray:
    """Fitness-difference weighted mutants around the population best.

    Row i has w difference vectors ``diffs[i]`` = x_b - x_c, shape (n, w, D),
    their lengths ``dist[i]``, shape (n, w), and fitness gaps ``gaps[i]`` =
    y_b - y_c, shape (n, w). Each pair contributes its difference vector
    weighted by the fitness gap per unit distance. The weighted sum S is
    rescaled by phi = (||sum of differences|| / w) / ||S||, so the step
    length always equals the mean difference-vector length regardless of
    the fitness scale, and the direction descends the quasi-gradient:

        donor = x_best - F * phi * S

    A pair with a non-finite gap, or whose points coincide (length at or
    below ``eps_pair``), gives no direction and is left out of S. When
    ||S|| is at or below ``eps_den`` (all fitness gaps cancel, or no pair
    is left), the mutant falls back to a plain mean-difference step from
    x_best.
    """
    w = diffs.shape[1]
    usable = np.isfinite(gaps) & (dist > eps_pair)
    weights = np.divide(gaps, dist, out=np.zeros_like(dist), where=usable)
    s = np.einsum("nw,nwd->nd", weights, diffs)
    sum_diff = diffs.sum(axis=1)
    norm_s = np.linalg.norm(s, axis=1)
    plain = norm_s <= eps_den
    phi = (np.linalg.norm(sum_diff, axis=1) / w) / np.where(plain, 1.0, norm_s)
    donors = x_best - (F * phi)[:, None] * s
    donors[plain] = x_best + (F / w) * sum_diff[plain]
    return donors


def sqg_donors(
    X: np.ndarray,
    fitness: np.ndarray,
    targets,
    best: int,
    w: int,
    F: float,
    rng: RngStream,
    eps_pair: float = 0.0,
    eps_den: float = 0.0,
) -> np.ndarray:
    """One donor per row's target index in ``targets``, on ranked ``fitness``; see :func:`sqg_steps`.

    A row draws 2 w distinct non-target members once and pairs them in draw order: (1st, 2nd), (3rd, 4th), ...
    """
    idx = distinct_indices(targets, len(X), 2 * w, rng)
    b, c = idx[:, 0::2], idx[:, 1::2]
    diffs = X[b] - X[c]
    with np.errstate(invalid="ignore"):  # inf - inf gaps are left out as NaN
        gaps = fitness[b] - fitness[c]
    return sqg_steps(X[best], diffs, np.linalg.norm(diffs, axis=2), gaps, F, eps_pair, eps_den)


def mutate_rand1(pop: Population, target: int, F: float, rng: RngStream) -> np.ndarray:
    """Donor x_a + F (x_b - x_c) over three distinct non-target members."""
    return rand1_donors(pop.genomes, distinct_indices([target], pop.size, 3, rng), F)[0]


def mutate_best2(pop: Population, target: int, F: float, rng: RngStream) -> np.ndarray:
    """Donor x_best + F ((x_a - x_b) + (x_c - x_d)), indices distinct, non-target."""
    idx = distinct_indices([target], pop.size, 4, rng)
    return best2_donors(pop.genomes, best_index(pop), idx, F)[0]


def sqg_mutant(x_best: np.ndarray, pairs, F: float) -> np.ndarray:
    """One quasi-gradient mutant from ((x_b, y_b), (x_c, y_c)) pairs; see :func:`sqg_steps`."""
    if not pairs:
        raise ValueError("at least one pair is required")
    diffs = np.array([[np.asarray(xb, dtype=float) - np.asarray(xc, dtype=float) for (xb, _), (xc, _) in pairs]])
    dist = np.linalg.norm(diffs, axis=2)
    if np.any(dist == 0.0):
        raise ValueError("quasi-gradient pair has identical points")
    gaps = np.array([[float(yb) - float(yc) for (_, yb), (_, yc) in pairs]])
    return sqg_steps(np.asarray(x_best, dtype=float), diffs, dist, gaps, F)[0]


def sqg_donor(
    pop: Population,
    target: int,
    best: int,
    w: int,
    F: float,
    rng: RngStream,
    eps_pair: float = 0.0,
    eps_den: float = 0.0,
) -> np.ndarray:
    """Sample w member pairs and build the quasi-gradient donor of one target; see :func:`sqg_donors`."""
    return sqg_donors(pop.genomes, pop.fitness, [target], best, w, F, rng, eps_pair, eps_den)[0]


def binomial_masks(n: int, d: int, CR: float, rng: RngStream) -> np.ndarray:
    """Donor-gene masks of n binomial crossovers.

    Each gene comes from the donor with probability CR; the forced index
    j_rand of each row always does.
    """
    j_rand = rng.integers(d, size=n)
    take = rng.random((n, d)) < CR
    take[np.arange(n), j_rand] = True
    return take


def exponential_masks(n: int, d: int, CR: float, rng: RngStream) -> np.ndarray:
    """Donor-gene masks of n exponential crossovers: contiguous cyclic blocks.

    A block starts at a uniform index and grows while successive uniform
    draws stay below CR, capped at the full length. CR = 0 copies exactly
    one gene; CR = 1 copies the whole donor.
    """
    start = rng.integers(d, size=n)[:, None]
    # grow[:, -1] stays False: a block whose d - 1 draws all grow has length d.
    grow = np.zeros((n, d), dtype=bool)
    np.less(rng.random((n, d - 1)), CR, out=grow[:, :-1])
    end = start + 1 + grow.argmin(axis=1, keepdims=True)
    cols = np.arange(d)
    # columns start to end - 1; those past d - 1 wrap round to the front
    return ((cols >= start) & (cols < end)) | (cols < end - d)


def crossover_binomial(target: np.ndarray, donor: np.ndarray, CR: float, rng: RngStream) -> np.ndarray:
    """Per-gene mixing; the forced index j_rand always comes from the donor."""
    return np.where(binomial_masks(1, target.size, CR, rng)[0], donor, target)


def crossover_exponential(target: np.ndarray, donor: np.ndarray, CR: float, rng: RngStream) -> np.ndarray:
    """Copy a contiguous cyclic block from the donor; see :func:`exponential_masks`."""
    return np.where(exponential_masks(1, target.size, CR, rng)[0], donor, target)


def sqg_gradient_estimate(
    evaluator: BudgetedEvaluator, x: np.ndarray, r: int, delta: float, rng: RngStream
) -> np.ndarray:
    """Stochastic quasi-gradient from r uniform perturbation directions.

    xi = sum_k ((f(x + delta z_k) - f(x)) / delta) z_k with z_k uniform in
    [-1, 1]^D. Costs r + 1 evaluations, made as one batch: f(x), then the
    r perturbed points. Raises BudgetExhausted if the budget cuts the batch.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    x = np.asarray(x, dtype=float)
    z = rng.uniform(-1.0, 1.0, (r, x.size))
    batch = np.empty((r + 1, x.size))
    batch[0] = x
    np.add(np.multiply(z, delta, out=batch[1:]), x, out=batch[1:])  # x + delta * z in place: IEEE + and * commute
    values = evaluator.evaluate_batch(batch)
    return ((values[1:] - values[0]) / delta) @ z


def _donors(config: DEConfig, X: np.ndarray, fitness: np.ndarray, rng: RngStream, eps: float):
    """Every row's donor, each row its own target; the best is the lowest ranked fitness, ties to the lowest index."""
    rows = np.arange(len(X))
    if config.strategy == "sqgbin":
        return sqg_donors(X, fitness, rows, int(np.argmin(fitness)), config.w, config.F, rng, eps, eps)
    if config.strategy == "rand1exp":
        return rand1_donors(X, distinct_indices(rows, len(X), 3, rng), config.F)
    return best2_donors(X, int(np.argmin(fitness)), distinct_indices(rows, len(X), 4, rng), config.F)


@np.errstate(all="ignore")  # once per run: a box or an objective that overflows gives inf and NaN, which rank last
def run_de(config: DEConfig, fn, t_max: int, seed: int) -> RunTrace:
    """One budgeted DE run; returns the best-so-far trace.

    The population is synchronous: donors are built from the current
    generation and survivors replace it wholesale. The evaluator ends the
    run where the budget ends, inside a batch or, checked before each
    generation's donors are built, on a generation boundary. The run draws
    from ``derive_seed(seed, "run")``, so a function built with the same
    seed, whose first draw is its shift, is not where the run starts.
    """
    rng = make_rng(derive_seed(seed, "run"))
    evaluator = BudgetedEvaluator(fn, t_max, rng)
    space = fn.space
    X = space.sample_uniform(rng, config.pop_size)
    eps = 1e-12 * space.mean_range
    masks = exponential_masks if config.strategy == "rand1exp" else binomial_masks
    try:
        fitness = ranked_fitness(evaluator.evaluate_batch(X))
        while not evaluator.exhausted:
            donors = space.clip(_donors(config, X, fitness, rng, eps))
            trials = np.where(masks(config.pop_size, space.dim, config.CR, rng), donors, X)
            values = ranked_fitness(evaluator.evaluate_batch(trials))
            won = np.flatnonzero(_replaces(fitness, values))
            X[won] = trials[won]
            fitness[won] = values[won]
    except BudgetExhausted:
        pass
    return evaluator.trace()


@np.errstate(all="ignore")  # once per run, as in run_de: an inf - inf probe difference is a NaN estimate, no step
def run_sqg(config: SQGConfig, fn, t_max: int, seed: int) -> RunTrace:
    """Budgeted quasi-gradient descent from the best of a uniform sample.

    Iterates x <- clip(x - rho_t * xi / ||xi||) with rho_t decaying
    geometrically from step0 times the mean bound range. A zero or
    non-finite estimate skips the step but still advances the schedule.
    Like :func:`run_de`, it draws from ``derive_seed(seed, "run")``.
    """
    rng = make_rng(derive_seed(seed, "run"))
    evaluator = BudgetedEvaluator(fn, t_max, rng)
    space = fn.space
    warm = space.sample_uniform(rng, config.warm_start_samples)
    step_scale = config.step0 * space.mean_range
    try:
        x = warm[int(np.argmin(ranked_fitness(evaluator.evaluate_batch(warm))))]
        for t in itertools.count():
            xi = sqg_gradient_estimate(evaluator, x, config.r, config.delta, rng)
            norm = math.sqrt(xi @ xi)  # the value np.linalg.norm gives a 1-D array
            if math.isfinite(norm) and norm > 0.0:
                x = space.clip(x - (step_scale * config.decay ** t) * (xi / norm))
    except BudgetExhausted:
        return evaluator.trace()
