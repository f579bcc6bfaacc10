"""Golden-regression harness: recompute the registry's cheap points in-process
and compare them, by key, against the committed ``results/*.csv`` artifacts.

The experiments regenerate the paper's figures deterministically (seeded
RNGs, analytic cost models, stateless engines), so the committed CSVs are
reproducible to the digit.  Every ``golden`` point of every
:class:`~repro.bench.experiments.Experiment` is recomputed through the same
``rows(point)`` builder the benchmark uses and pinned to the committed rows
within a tight tolerance.  A perf refactor that silently changes reproduced
numbers (or a workload refactor that perturbs a seeded trace) fails here
instead of shipping.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

# Tight enough that any behavioural change to the models trips the test;
# loose enough to absorb last-ulp float differences across platforms after
# the experiments' explicit rounding.
TOLERANCE = dict(rel=2e-3, abs=2e-3)

GOLDEN_CASES = [
    pytest.param(experiment, point, id=f"{experiment.name}-{index}")
    for experiment in EXPERIMENTS
    for index, point in enumerate(experiment.golden)
]


def load_golden(filename: str) -> list[dict[str, str]]:
    path = RESULTS_DIR / filename
    assert path.exists(), f"committed golden artifact missing: {path}"
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, f"golden artifact {filename} is empty"
    return rows


def parse(value: str) -> object:
    try:
        return float(value)
    except ValueError:
        return value


@pytest.mark.parametrize(("experiment", "point"), GOLDEN_CASES)
def test_golden_point_matches_committed_csv(experiment, point):
    golden = load_golden(experiment.csv)
    columns = list(golden[0])
    # The CSV writer renders every value with str(), so keys compare as text.
    by_key = {tuple(row[column] for column in experiment.key): row for row in golden}
    assert len(by_key) == len(golden), f"{experiment.csv}: duplicate keys {experiment.key}"

    recomputed = experiment.rows(point)
    assert recomputed, f"{experiment.name} {point!r}: no rows"
    for actual in recomputed:
        key = tuple(str(actual[column]) for column in experiment.key)
        context = f"{experiment.name} {key}"
        assert key in by_key, f"{context}: committed CSV lost this row"
        assert set(actual) <= set(columns), f"{context}: columns changed"
        for column in columns:
            # Columns a row does not carry are written blank.
            value, got = parse(by_key[key][column]), actual.get(column, "")
            if isinstance(value, float):
                assert got == pytest.approx(value, **TOLERANCE), (
                    f"{context} column {column!r}: committed {value}, recomputed {got}"
                )
            else:
                assert str(got) == value, (
                    f"{context} column {column!r}: committed {value!r}, recomputed {got!r}"
                )
