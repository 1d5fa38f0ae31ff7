"""One timed pass of a workload's pipeline, and its output checks.

A pass runs ``ensure_rse_targets`` -> ``run_benchmark`` -> ``summarize``
on an empty directory. Each phase is one interval of a ``reference.Clock``,
so it is reported at reference speed, and the reference is timed before,
between and after the phases. The traced run passes a span factory; the
spans open inside the intervals, so no reference time falls into a span.
The files are checked after the timed part and left in place.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from checks import CheckResult, check_results
from reference import Clock, Interval
from workloads import Workload


def _no_span(name: str):
    return nullcontext()


@dataclass
class Pass:
    rse: Interval
    runs: Interval
    summarize: Interval
    summary: object
    check: CheckResult

    @property
    def total_s(self) -> float:
        """RSE, runs and summary at reference speed."""
        return self.rse.seconds + self.runs.seconds + self.summarize.seconds

    @property
    def reference_s(self) -> float:
        """The mean reference time of the three phases, for spans inside the pass."""
        return (self.rse.reference_s + self.runs.reference_s + self.summarize.reference_s) / 3

    @property
    def ert_mean(self) -> float:
        rows = self.summary.ert_rows
        return sum(r["ert"] for r in rows) / len(rows)


def timed_pass(harness, workload: Workload, spec, clock: Clock, workers: int, span=_no_span) -> Pass:
    clock.restart()
    with clock.interval() as rse:
        harness.ensure_rse_targets(spec)
    with clock.interval() as runs, span("harness.run_benchmark"):
        harness.run_benchmark(spec, workers=workers)
    with clock.interval() as table, span("harness.summarize"):
        summary = harness.summarize(spec.output_dir)
    check = check_results(Path(spec.output_dir), workload, summary.ert_rows)
    return Pass(rse, runs, table, summary, check)
