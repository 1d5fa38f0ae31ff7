"""The committed ``reproduction/`` is the protocol of this code.

A change to the protocol's defaults or to the RNG stream version fails here
until ``reproduction/`` is regenerated: run ``sqgde bench --workers 2 --out
results --quiet`` and ``sqgde summarize --out results``, copy spec.json,
ert.csv and summary.csv, and update ``digest.txt`` (see there). The full
protocol run takes minutes, so only its cheap consequences are checked here.
"""

import json
from pathlib import Path

from sqgde import harness
from sqgde.core import STREAM_VERSION
from sqgde.harness import build_summary_rows, default_benchmark_spec
from sqgde.metrics import ErtResult

REPRODUCTION = Path(__file__).resolve().parents[1] / "reproduction"


def test_committed_reproduction_is_the_protocol_and_its_summary(tmp_path):
    spec = default_benchmark_spec()
    recorded = json.loads((REPRODUCTION / "spec.json").read_text())
    assert recorded == {**spec.to_dict(), "stream_version": STREAM_VERSION}
    ert_by_cell = {
        (algorithm, function, int(dim)): ErtResult(float(ert), lower_bound == "true", float(rate))
        for algorithm, function, dim, ert, lower_bound, rate in harness._read_rows(
            REPRODUCTION / "ert.csv", harness.ERT_COLUMNS
        )
    }
    assert len(ert_by_cell) == 4 * 17 * 2
    cat_of = {f.label: f.category for f in spec.functions}
    rows = build_summary_rows(ert_by_cell, [a.name for a in spec.algorithms], cat_of, spec.dims)
    harness._write_table(tmp_path / "summary.csv", harness.SUMMARY_COLUMNS, rows)
    assert (tmp_path / "summary.csv").read_bytes() == (REPRODUCTION / "summary.csv").read_bytes()
