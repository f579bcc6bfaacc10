"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures, prints the
rows in paper style and saves a CSV under ``results/``.  Scaled-down workload
sizes (fewer requests / sampled sweep points) are used where the paper's full
runs would take hours; each benchmark's docstring states its scaling.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.reporting import ResultTable, default_results_dir
from repro.gpu.config import a100_sxm_80gb
from repro.gpu.engine import ExecutionEngine
from repro.models.config import paper_deployment
from repro.obs.profiling import HostProfiler


@pytest.fixture(scope="session")
def a100():
    return a100_sxm_80gb()


@pytest.fixture(scope="session")
def llama3_deployment():
    return paper_deployment("llama-3-8b")


@pytest.fixture(scope="session")
def llama2_deployment():
    return paper_deployment("llama-2-7b")


@pytest.fixture(scope="session")
def yi_deployment():
    return paper_deployment("yi-6b")


@pytest.fixture(scope="session")
def sim_engine(llama3_deployment):
    return ExecutionEngine(llama3_deployment.gpu)


@pytest.fixture(scope="session")
def yi_engine(yi_deployment):
    return ExecutionEngine(yi_deployment.gpu)


@pytest.fixture()
def report():
    """Factory for result tables that are printed and persisted under results/.

    Each table also self-profiles its own generation (wall clock / CPU time /
    peak RSS, from table creation to ``finish()``) into a sibling
    ``results/BENCH_<stem>.json`` artifact.  These artifacts are *not*
    committed — the perf-regression gate only compares files present in the
    committed baseline — but CI uploads them so the repo's host-side compute
    footprint is tracked run over run.
    """

    def _make(title: str, filename: str) -> tuple[ResultTable, callable]:
        table = ResultTable(title)
        profiler = HostProfiler(filename).start()

        def finish() -> ResultTable:
            profiler.stop()
            table.print()
            results_dir = default_results_dir()
            table.save_csv(results_dir / filename)
            artifact = results_dir / f"BENCH_{Path(filename).stem}.json"
            artifact.write_text(
                json.dumps(
                    {
                        "table": filename,
                        "title": title,
                        "num_rows": len(table.rows),
                        "host_profile": profiler.as_dict(),
                    },
                    indent=2,
                )
                + "\n"
            )
            return table

        return table, finish

    return _make


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The host profile of the run lands in ``benchmark.extra_info`` so
    pytest-benchmark's own JSON output carries peak-RSS alongside timings.
    """
    with HostProfiler("run_once") as profiler:
        result = benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
    benchmark.extra_info["host_profile"] = profiler.as_dict()
    return result
