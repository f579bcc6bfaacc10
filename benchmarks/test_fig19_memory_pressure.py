"""Figure 19: the memory-pressure rows are a pure function of their point.

The table itself is built and checked by ``test_experiments.py``; this pins
the perf-gate contract that a re-run of one point gives byte-identical rows.
"""

from repro.bench.experiments import FIG19, FIG19_CAPACITIES


def test_figure19_rows_are_deterministic():
    """Same scenario + seed => byte-identical rows (the perf-gate contract)."""
    point = ("shared-prefix-chat", FIG19_CAPACITIES["shared-prefix-chat"][1], True, True)
    assert FIG19.rows(point) == FIG19.rows(point)
