"""Benchmark harness: sweeps, result-table reporting and the perf gate.

The experiment registry (``repro.bench.experiments``) is imported on its own:
it pulls in every serving and cluster layer, so this package stays light.
"""

from repro.bench.reporting import ResultTable, default_results_dir
from repro.bench.sweeps import (
    SweepPoint,
    cluster_scaling_grid,
    figure11_sweep,
    figure13_grid,
)

__all__ = [
    "ResultTable",
    "default_results_dir",
    "SweepPoint",
    "cluster_scaling_grid",
    "figure11_sweep",
    "figure13_grid",
]
