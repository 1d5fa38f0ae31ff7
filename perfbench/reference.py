"""A fixed reference computation that measures how fast the machine is now.

On a small VM that shares its host, the same code runs 20-40% faster or
slower from one minute to the next, and no statistic over one run removes
that drift. The benchmark therefore times this reference right next to
each timed interval, in the same process, and scales the interval to the
speed at which the reference takes ``NOMINAL_S``:

    seconds at reference speed = measured seconds * NOMINAL_S / reference seconds

The reference mixes what the program spends its time on: a Python loop of
small-vector numpy calls (the optimizer loop), matrix-vector products with
transcendental functions (the rotated objectives), and plain interpreter
arithmetic. It does not use sqgde, so no change to the program moves it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# The reference's time on the machine the first baseline was taken on, so
# that scaled values read close to wall seconds there.
NOMINAL_S = 0.05


def _work() -> float:
    rng = np.random.Generator(np.random.PCG64(12345))
    m = rng.standard_normal((50, 50))
    x = np.zeros(30)
    acc = 0.0
    for _ in range(2500):
        a = rng.uniform(-5.0, 5.0, 30)
        acc += float(np.linalg.norm(a - x))
        x = np.clip(0.5 * a, -1.0, 1.0)
    for _ in range(500):
        z = m @ rng.standard_normal(50)
        acc += float(np.sum(np.cos(2.0 * np.pi * z)))
    s = 0
    for i in range(100000):
        s += i * i
    return acc + s


def measure() -> float:
    """Seconds the reference takes now."""
    t = perf_counter()
    _work()
    return perf_counter() - t


def scale(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference took ``reference_s``, at reference speed."""
    return seconds * NOMINAL_S / reference_s


@dataclass
class Interval:
    wall_s: float = 0.0
    reference_s: float = NOMINAL_S

    @property
    def seconds(self) -> float:
        """The interval at reference speed."""
        return scale(self.wall_s, self.reference_s)

    def scaled(self, seconds: float) -> float:
        """Part of the interval, such as a span inside it, at reference speed."""
        return scale(seconds, self.reference_s)


class Clock:
    """Times intervals and scales each by the reference times just before and after it.

    The reference timed after one interval also serves as the one before
    the next. Call ``restart`` after untimed work, so the next interval
    gets a fresh reference.
    """

    def __init__(self):
        measure()  # the first call in a process pays one-off costs
        self.refs = [measure()]

    def restart(self) -> None:
        self.refs.append(measure())

    @contextmanager
    def interval(self):
        interval = Interval()
        t = perf_counter()
        yield interval
        interval.wall_s = perf_counter() - t
        self.refs.append(measure())
        interval.reference_s = (self.refs[-2] + self.refs[-1]) / 2
