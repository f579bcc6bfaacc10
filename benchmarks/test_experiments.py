"""Regenerate every registered experiment (``repro.bench.experiments``).

One test per figure or table: build its rows under a host profile, print
them in paper style, save ``results/<csv>`` (plus the JSON twin where the
experiment has one) and ``results/BENCH_<stem>.json``, then check the
paper-shape claims.  The ``BENCH_*.json`` host profiles are machine-
dependent, so they are gitignored and excluded from the perf gate; CI
uploads them as artifacts.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.experiments import EXPERIMENTS
from repro.bench.reporting import ResultTable, default_results_dir
from repro.obs.profiling import HostProfiler


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda experiment: experiment.name)
def test_experiment(benchmark, experiment):
    table = ResultTable(experiment.title)
    with HostProfiler(experiment.name) as profiler:
        table.add_rows(
            benchmark.pedantic(experiment.build, rounds=1, iterations=1, warmup_rounds=0)
        )
    benchmark.extra_info["host_profile"] = profiler.as_dict()
    table.print()

    results_dir = default_results_dir()
    table.save_csv(results_dir / experiment.csv)
    if experiment.json:
        table.save_json(results_dir / experiment.json_name)
    (results_dir / f"BENCH_{Path(experiment.csv).stem}.json").write_text(
        json.dumps(
            {
                "table": experiment.csv,
                "title": experiment.title,
                "num_rows": len(table.rows),
                "host_profile": profiler.as_dict(),
            },
            indent=2,
        )
        + "\n"
    )
    experiment.check(table.rows)
