"""The experiment registry declares exactly the committed ``results/`` artifacts.

Cheap checks over the committed files only (nothing is recomputed): every
CSV and JSON artifact under ``results/`` belongs to one registered
experiment and every declared artifact is committed, and each JSON twin
holds the same rows as its CSV.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


def test_names_and_artifacts_are_unique():
    assert len({experiment.name for experiment in EXPERIMENTS}) == len(EXPERIMENTS)
    assert len({experiment.csv for experiment in EXPERIMENTS}) == len(EXPERIMENTS)


def test_registry_declares_every_committed_artifact():
    # BENCH_*.json host profiles are machine-dependent and never committed.
    committed = {
        path.name
        for path in RESULTS_DIR.iterdir()
        if path.is_file() and not path.name.startswith("BENCH_")
    }
    declared = set().union(*(experiment.artifacts() for experiment in EXPERIMENTS))
    assert committed == declared


def test_golden_points_are_grid_points():
    for experiment in EXPERIMENTS:
        assert set(experiment.golden) <= set(experiment.grid), experiment.name


@pytest.mark.parametrize(
    "experiment",
    [experiment for experiment in EXPERIMENTS if experiment.json],
    ids=lambda experiment: experiment.name,
)
def test_json_twin_matches_csv(experiment):
    with (RESULTS_DIR / experiment.csv).open(newline="") as handle:
        reader = csv.DictReader(handle)
        csv_rows = list(reader)
    payload = json.loads((RESULTS_DIR / experiment.json_name).read_text())
    assert payload["title"] == experiment.title
    assert payload["columns"] == reader.fieldnames
    assert payload["rows"], f"{experiment.json_name} has no rows"
    # The CSV writer renders each value with str() and a missing column blank.
    as_text = [
        {column: str(row[column]) if column in row else "" for column in payload["columns"]}
        for row in payload["rows"]
    ]
    assert as_text == csv_rows
