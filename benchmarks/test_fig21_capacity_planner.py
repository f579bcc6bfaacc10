"""Figure 21: the capacity plan is a pure function of its config.

The table itself is built and checked by ``test_experiments.py``; this pins
the perf-gate contract that re-planning gives the same rows and winner.
"""

from repro.bench.experiments import FIG21_CONFIG
from repro.planner import capacity_plan


def test_figure21_plan_is_deterministic():
    """Same planner config => identical rows and the same winner (gate contract)."""
    first = capacity_plan(FIG21_CONFIG)
    second = capacity_plan(FIG21_CONFIG)
    assert first.rows() == second.rows()
    assert first.summary() == second.summary()
