"""Core types for budgeted, reproducible minimization runs.

Everything downstream (test functions, optimizers, the benchmark harness)
shares these primitives: an axis-aligned search box, a population array,
a hard evaluation budget, and explicit seeded random streams.
"""

from __future__ import annotations

import hashlib
import os
import re
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Callable, get_args, get_origin, get_type_hints

import numpy as np

__all__ = [
    "STREAM_VERSION",
    "RngStream",
    "BudgetExhausted",
    "make_rng",
    "derive_seed",
    "record_dict",
    "check_names",
    "json_value",
    "read_fields",
    "SearchSpace",
    "ranked_fitness",
    "Population",
    "init_population",
    "best_index",
    "RunTrace",
    "BudgetedEvaluator",
]

# All randomness flows through explicitly seeded generators so that a run is
# fully determined by its seed.
RngStream = np.random.Generator

# Version of what a run computes from its seed: the order in which it draws
# from its streams, and the numerics of the objectives. Results of different
# versions differ for the same seed and must not be mixed.
# Version 2 draws whole generations at once (batched donors, crossover
# masks and objective calls). Version 3 sums the Weierstrass terms by a cube
# recurrence, which changes its values in the last bits. Version 4 draws a
# run from derive_seed(seed, "run"), never from the stream a function built
# with the same seed draws its shifts from, and evaluates random-search
# samples in row blocks. Version 5 draws an SQG-DE row's pairs once, leaving
# a coincident pair out instead of redrawing it, and gives the Weierstrass
# kernel no one-element block.
STREAM_VERSION = 5


class BudgetExhausted(Exception):
    """An evaluation was requested after the budget was fully spent."""


def make_rng(seed: int) -> RngStream:
    """Deterministic stream: the same seed always yields the same draws."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(master_seed: int, *parts: object) -> int:
    """Stable 64-bit sub-seed keyed by (master_seed, *parts).

    Uses a cryptographic hash of the string forms, so it is reproducible
    across processes and platforms and insensitive to dict ordering.
    """
    key = "|".join(str(p) for p in (master_seed, *parts))
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _plain(value):
    """A value as JSON holds it: records by their ``to_dict``, sequences as lists, paths as strings."""
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return os.fspath(value) if isinstance(value, os.PathLike) else value


def record_dict(record) -> dict:
    """A dataclass's fields that are not None, in field order, as JSON holds them."""
    return {f.name: _plain(v) for f in fields(record) if (v := getattr(record, f.name)) is not None}


# An algorithm name, function label or function category: each becomes an
# unquoted CSV field, and a name or label a part of a trace file name, whose
# parts "__" separates.
_NAME = re.compile(r"[A-Za-z0-9]+(?:[._-][A-Za-z0-9]+)*")


def check_names(what: str, values) -> None:
    """Refuse, naming it, a value that cannot be a CSV field and a part of a file name."""
    if bad := [v for v in values if not (isinstance(v, str) and _NAME.fullmatch(v))]:
        raise ValueError(f"{what} {bad[0]!r} must be letters and digits joined by single '.', '_' or '-'")


# The values a JSON field of each type takes. JSON keeps booleans apart from
# numbers, and a cast would change a value of another type: bool("false") is True.
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str, "list": list, "object": dict}


def json_value(key: str, value, kind: str):
    """``value`` if it has the JSON type ``kind``, a float field's as a float; refuses another, naming ``key``."""
    if isinstance(value, bool) != (kind == "bool") or not isinstance(value, _JSON_TYPES[kind]):
        raise ValueError(f"{key} must be a JSON {kind}, got {value!r}")
    try:
        return float(value) if kind == "float" else value
    except OverflowError:  # an integer of over 308 digits
        raise ValueError(f"{key} is out of the range of a float") from None


# A record type's field types by name, read from its annotations once per type.
field_types = cache(get_type_hints)


def read_fields(record, d, what: str, known=()) -> dict:
    """The entries of the JSON object ``d`` that name fields of ``record``, each read by its field's type.

    A type with ``from_dict`` reads through it, a list or tuple of ``T`` is a
    JSON list read entry by entry as ``T``, and any other type is the JSON value
    of its name (see :func:`json_value`). Only a ``T | None`` takes ``null``,
    as unset. A key neither a field nor in ``known`` is refused: a misspelt
    key would silently take its default.
    """
    types = field_types(record)
    if unknown := [key for key in json_value(what, d, "object") if key not in types and key not in known]:
        raise ValueError(f"{what} has unknown keys {unknown}; known keys: {', '.join([*types, *known])}")
    return {key: _read(what, key, d[key], t) for key, t in types.items() if key in d}


def _read(what: str, key: str, value, t):
    """``value`` read as the type ``t`` by the rule of :func:`read_fields`; a refusal names ``what: key``."""
    if type(None) in get_args(t):  # T | None
        return None if value is None else _read(what, key, value, get_args(t)[0])
    if get_origin(t) in (list, tuple):
        entries = json_value(f"{what}: {key}", value, "list")
        return get_origin(t)(_read(what, f"each of {key}", e, get_args(t)[0]) for e in entries)
    return t.from_dict(value) if hasattr(t, "from_dict") else json_value(f"{what}: {key}", value, t.__name__)


@dataclass(frozen=True, eq=False)
class SearchSpace:
    """Axis-aligned box in R^dim with strictly ordered bounds and a finite width."""

    dim: int
    lower: np.ndarray
    upper: np.ndarray
    width: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if lower.shape != (self.dim,) or upper.shape != (self.dim,):
            raise ValueError("bounds must have shape (dim,)")
        if not np.all(lower < upper):
            raise ValueError("lower bound must be strictly below upper bound per axis")
        with np.errstate(over="ignore"):
            width = upper - lower
        if not np.all(np.isfinite(width)):
            raise ValueError("upper - lower must be finite per axis")
        object.__setattr__(self, "width", width)

    @classmethod
    def box(cls, dim: int, lower: float, upper: float) -> "SearchSpace":
        return cls(dim, np.full(dim, float(lower)), np.full(dim, float(upper)))

    def clip(self, x: np.ndarray) -> np.ndarray:
        """Project a point onto the box, component-wise."""
        # np.clip's values, NaN and signed zeros included, at half its call cost on a 30-vector
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def sample_uniform(self, rng: RngStream, n: int | None = None) -> np.ndarray:
        """One point, or an (n, dim) batch of points, uniform in the box.

        Bit for bit ``rng.uniform(lower, upper, size)``, stream position
        included, without its per-element broadcast loop.
        """
        x = rng.random((self.dim,) if n is None else (n, self.dim))
        x *= self.width
        x += self.lower
        return x

    @property
    def mean_range(self) -> float:
        return float(np.mean(self.width))


def ranked_fitness(values) -> np.ndarray:
    """Fitness as it ranks: a NaN or infinite value ranks as +inf (worst)."""
    values = np.asarray(values, dtype=float)
    return np.where(np.isfinite(values), values, np.inf)


class _Member:
    """One row of a population; setting ``fitness`` writes through."""

    __slots__ = ("_pop", "_i")

    def __init__(self, pop: "Population", i: int):
        self._pop = pop
        self._i = i

    @property
    def genome(self) -> np.ndarray:
        return self._pop.genomes[self._i]

    @property
    def fitness(self) -> float:
        return float(self._pop.fitness[self._i])

    @fitness.setter
    def fitness(self, value: float) -> None:
        self._pop.fitness[self._i] = ranked_fitness(value)


class Population:
    """N members as an (N, D) genome array plus a fitness vector.

    The fitness vector holds ranked fitness (see :func:`ranked_fitness`),
    +inf (worst) until a member is evaluated.
    """

    def __init__(self, genomes):
        self.genomes = np.array(genomes, dtype=float)
        if self.genomes.ndim != 2:
            raise ValueError("genomes must be an (N, D) array")
        self.fitness = np.full(len(self.genomes), np.inf)

    @property
    def size(self) -> int:
        return len(self.genomes)

    @property
    def members(self) -> list[_Member]:
        return [_Member(self, i) for i in range(self.size)]


def init_population(space: SearchSpace, pop_size: int, rng: RngStream) -> Population:
    """Uniform random population inside the box, not yet evaluated."""
    if pop_size < 1:
        raise ValueError("pop_size must be at least 1")
    return Population(space.sample_uniform(rng, pop_size))


def best_index(pop: Population) -> int:
    """Index of the lowest ranked fitness; ties go to the lowest index."""
    return int(np.argmin(pop.fitness))


@dataclass(frozen=True)
class RunTrace:
    """Best-so-far history of one run.

    ``points`` holds (evaluation index, best fitness) at every strict
    improvement, in evaluation order; ``final_evals`` is the total number of
    evaluations consumed. Between recorded points the best-so-far value is
    piecewise constant.
    """

    points: tuple[tuple[int, float], ...]
    final_evals: int

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        last_e, last_f = 0, float("inf")
        for e, f in pts:
            if e <= last_e:
                raise ValueError("trace evaluation indices must strictly increase")
            if not f <= last_f:  # a NaN is refused too
                raise ValueError("trace fitness must be non-increasing")
            last_e, last_f = e, f
        if pts and pts[-1][0] > self.final_evals:
            raise ValueError("trace points exceed final evaluation count")

    @property
    def final_best(self) -> float:
        return self.points[-1][1] if self.points else float("inf")

    def first_crossing(self, target: float) -> int | None:
        """First evaluation index with best fitness strictly below target."""
        # Fitness never increases, so -fitness is sorted.
        i = bisect_right(self.points, -target, key=lambda p: -p[1])
        return self.points[i][0] if i < len(self.points) else None


class BudgetedEvaluator:
    """Wraps an objective with a hard evaluation budget and improvement log.

    An objective that carries a ``space`` (a :class:`TestFunction` or a
    wrapper of one) is called once per batch as ``fn(X, rng)`` with an
    (n, D) array and returns n values; any other callable is called as
    ``fn(genome, rng)`` once per row. The stream is used for stochastic
    objectives (noise draws). The evaluator alone ends a run: a request it
    cannot fully serve within ``t_max`` evaluations raises
    :class:`BudgetExhausted`, after evaluating what fits.
    """

    def __init__(self, fn: Callable, t_max: int, rng: RngStream | None = None):
        if t_max < 1:
            raise ValueError("t_max must be at least 1")
        self.fn = fn
        self.t_max = int(t_max)
        self.rng = rng
        self.used = 0
        self.best_so_far = float("inf")
        self._points: list[tuple[int, float]] = []
        self._batched = hasattr(fn, "space")

    @property
    def exhausted(self) -> bool:
        return self.used >= self.t_max

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate the rows of ``X`` in order and return their values.

        Improvements are logged in row order, as if the rows had been
        evaluated one by one. If the budget cannot hold every row, the rows
        that fit are evaluated and logged (the objective, and its noise
        draws, see only those), then :class:`BudgetExhausted` is raised.
        """
        X = np.asarray(X, dtype=float)
        if not self._batched:
            return np.array([self.evaluate(x) for x in X], dtype=float)
        fit = X[: self.t_max - self.used]
        values = np.asarray(self.fn(fit, self.rng), dtype=float) if len(fit) else np.empty(0)
        if values.shape != (len(fit),):
            raise ValueError(f"objective returned shape {values.shape} for {len(fit)} points")
        self._log(values.tolist())
        if len(fit) < len(X):
            raise BudgetExhausted(f"budget of {self.t_max} evaluations spent")
        return values

    def evaluate(self, genome: np.ndarray) -> float:
        if self.used >= self.t_max:
            raise BudgetExhausted(f"budget of {self.t_max} evaluations spent")
        value = float(self.fn(genome, self.rng))
        self._log((value,))
        return value

    def _log(self, values) -> None:
        for value in values:
            self.used += 1
            if value < self.best_so_far:  # never true for NaN
                self.best_so_far = value
                self._points.append((self.used, value))

    def trace(self) -> RunTrace:
        points = list(self._points)
        # Close the trace with the final state, inf if no value was finite, so consumers see the run end.
        if self.used > (points[-1][0] if points else 0):
            points.append((self.used, self.best_so_far))
        return RunTrace(tuple(points), self.used)
