"""In-memory spans around the calls the harness makes into the other layers.

A span records name, start, end, parent span and run id. Objective calls
are not spans: a pass-through objective adds its call time and a count to
the innermost open span as running sums. A layer's self time is the total
duration of its spans minus the part covered by child spans and by
objective calls; objective time belongs to ``testfuncs``.

``traced_harness`` rebinds, for the duration of a ``with`` block, the names
the harness module imported from ``testfuncs``, ``metrics`` and ``stats``,
plus its own ``execute_run`` and ``ensure_rse_targets``, so every call the
harness makes across a layer boundary opens a span. The program's code is
unchanged and the originals are restored on exit. Only worker-count 1 is
traced: pool workers would record spans in their own memory.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    run_id: str | None = None
    objective_s: float = 0.0
    objective_calls: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run_id: str | None = None):
        parent = self._open[-1] if self._open else None
        if run_id is None and parent is not None:
            run_id = self.spans[parent].run_id
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), parent=parent, run_id=run_id))
        self._open.append(index)
        try:
            yield self.spans[index]
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def wrap(self, name: str, fn, run_id_of=None):
        def traced(*args, **kwargs):
            with self.span(name, run_id_of(*args) if run_id_of else None):
                return fn(*args, **kwargs)

        return traced

    def add_objective(self, seconds: float) -> None:
        if self._open:
            span = self.spans[self._open[-1]]
            span.objective_s += seconds
            span.objective_calls += 1

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        totals: dict[str, float] = defaultdict(float)
        for s, child_s in zip(self.spans, covered):
            totals[s.layer] += s.duration - child_s - s.objective_s
            totals["testfuncs"] += s.objective_s
        return dict(totals)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([asdict(s) for s in self.spans]) + "\n")


class TimedObjective:
    """Pass-through objective that charges its call time to the open span.

    It exposes ``space`` and ``label`` like the wrapped function and draws
    nothing from the stream it is given, so results stay bit-identical.
    """

    def __init__(self, fn, tracer: Tracer):
        self.fn = fn
        self.space = fn.space
        self.label = fn.label
        self._add = tracer.add_objective

    def __call__(self, x, rng=None):
        t = perf_counter()
        value = self.fn(x, rng)
        self._add(perf_counter() - t)
        return value


@contextmanager
def traced_harness(harness, tracer: Tracer):
    names = (
        "make_test_function",
        "ensure_rse_targets",
        "execute_run",
        "estimate_rse_target",
        "expected_running_time",
        "bnfv_on_grid",
        "wilcoxon_signed_rank",
    )
    originals = {name: getattr(harness, name) for name in names}
    build = originals["make_test_function"]

    def make_test_function(desc, seed=None, dim=None):
        with tracer.span("testfuncs.make_test_function"):
            fn = build(desc, seed=seed, dim=dim)
        return TimedObjective(fn, tracer)

    def run_id(algo, fn, budget, seed):
        return f"{algo.name}/{fn.label}/d{fn.space.dim}/{seed}"

    def rse_id(fn, budget, reps, seed):
        return f"rse/{fn.label}/d{fn.space.dim}"

    patched = {
        "make_test_function": make_test_function,
        "ensure_rse_targets": tracer.wrap("harness.ensure_rse_targets", originals["ensure_rse_targets"]),
        "execute_run": tracer.wrap("algos.run", originals["execute_run"], run_id),
        "estimate_rse_target": tracer.wrap("metrics.estimate_rse_target", originals["estimate_rse_target"], rse_id),
        "expected_running_time": tracer.wrap("metrics.expected_running_time", originals["expected_running_time"]),
        "bnfv_on_grid": tracer.wrap("metrics.bnfv_on_grid", originals["bnfv_on_grid"]),
        "wilcoxon_signed_rank": tracer.wrap("stats.wilcoxon_signed_rank", originals["wilcoxon_signed_rank"]),
    }
    for name, fn in patched.items():
        setattr(harness, name, fn)
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(harness, name, fn)
