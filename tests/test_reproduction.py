"""The committed ``reproduction/`` is the protocol of this code.

A change to the protocol's defaults or to the RNG stream version fails here
until ``reproduction/`` is regenerated: run ``sqgde bench --workers 2 --out
results --quiet`` and ``sqgde summarize --out results``, copy spec.json,
ert.csv and summary.csv, and update ``digest.txt`` (see there). The full
protocol run takes minutes, so only its cheap consequences are checked here.

README's "What the protocol shows" is typed by hand from ``reproduction/``,
so its ERT table and every count its prose states are recomputed here and
must appear in README as written.
"""

import json
import math
from pathlib import Path

from sqgde import harness
from sqgde.core import STREAM_VERSION
from sqgde.harness import build_summary_rows, default_benchmark_spec
from sqgde.metrics import ErtResult

ROOT = Path(__file__).resolve().parents[1]
REPRODUCTION = ROOT / "reproduction"
# README as one line, each run of whitespace one space, so prose wrapped anywhere matches.
PROSE = " ".join((ROOT / "README.md").read_text().split())


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
    harness._write_csv(tmp_path / "summary.csv", harness.SUMMARY_COLUMNS, map(dict.values, rows))
    assert (tmp_path / "summary.csv").read_bytes() == (REPRODUCTION / "summary.csv").read_bytes()


def test_readme_ert_table_is_the_committed_summary():
    algos = [a.name for a in default_benchmark_spec().algorithms]
    by_row: dict[tuple[str, str], dict[str, str]] = {}
    for category, dim, algorithm, mean, flag, p in harness._read_rows(
        REPRODUCTION / "summary.csv", harness.SUMMARY_COLUMNS
    ):
        ert = f"{flag}{round(float(mean)):,}"
        by_row.setdefault((category, dim), {})[algorithm] = f"**{ert}**" if p == "" else f"{ert} ({float(p):.3g})"
    assert len(by_row) == 10
    for (category, dim), cells in by_row.items():
        row = f"| {category} | {dim} | " + " | ".join(cells[a] for a in algos) + " |"
        assert row in PROSE


def test_readme_prose_counts_follow_the_committed_ert():
    spec = default_benchmark_spec()
    algos = [a.name for a in spec.algorithms]
    erts = {
        (algorithm, function, int(dim)): float(ert)
        for algorithm, function, dim, ert, _, _ in harness._read_rows(REPRODUCTION / "ert.csv", harness.ERT_COLUMNS)
    }
    cells = [(f.label, dim) for f in spec.functions for dim in spec.dims]
    best = {cell: min(algos, key=lambda a: (erts[(a, *cell)], algos.index(a))) for cell in cells}
    wins = [cell for cell in cells if best[cell] == "sqgde"]
    assert f"sqgde has the lowest ERT in {len(wins)} of {len(cells)}." in PROSE
    # Its losses by margin: the four nearest are within a few evaluations, the rest far behind.
    losses = sorted((erts[("sqgde", *cell)] - erts[(best[cell], *cell)], cell) for cell in cells if cell not in wins)
    near, far = losses[:4], losses[4:]
    within = math.ceil(near[-1][0])
    assert len(losses) == 8 and far[0][0] > 2 * within
    assert f"Four of its eight losses are within {within} evaluations" in PROSE
    assert {(*cell, best[cell]) for _, cell in near} == {
        ("shifted_rastrigin", 30, "sqg"),
        ("shifted_rotated_rastrigin", 30, "sqg"),
        ("hybrid_rotated", 30, "de2"),
        ("hybrid_rotated_noisy", 30, "de2"),
    }
    assert (
        "(shifted_rastrigin and shifted_rotated_rastrigin at D = 30 against sqg, "
        "and hybrid_rotated and hybrid_rotated_noisy at D = 30 against de2)" in PROSE
    )
    # The far losses: two functions, each at both dims, both against sqg, with their ERTs.
    far_cells = {cell for _, cell in far}
    far_labels = [f.label for f in spec.functions if (f.label, spec.dims[0]) in far_cells]
    assert far_cells == {(label, dim) for label in far_labels for dim in spec.dims}
    assert {best[cell] for cell in far_cells} == {"sqg"}
    first, second = (
        f"{label}, "
        + " and ".join(f"{round(erts[('sqgde', label, dim)]):,}" for dim in spec.dims)
        + " against "
        + " and ".join(f"{round(erts[('sqg', label, dim)]):,}" for dim in spec.dims)
        for label in far_labels
    )
    assert f"all against plain sqg: {first} at D = 30 and 50, and {second}." in PROSE
    # Every other cell: under 259 evaluations, the population of 100 and under two generations.
    under = [cell for cell in cells if erts[("sqgde", *cell)] < 259]
    assert set(under) == set(cells) - far_cells
    assert under == [cell for cell in cells if erts[("sqgde", *cell)] < 100 + 2 * 100]
    assert f"In {len(under)} of {len(cells)} cells sqgde's ERT is under 259 evaluations" in PROSE
