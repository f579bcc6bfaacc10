"""Figure 20: the overload-survival rows are a pure function of their point.

The table itself is built and checked by ``test_experiments.py``; this pins
the perf-gate contract that a re-run of one point gives byte-identical rows.
"""

from repro.bench.experiments import FIG20


def test_figure20_rows_are_deterministic():
    """Same surge + policy + seed => byte-identical rows (the gate contract)."""
    point = (3.0, "autoscale+shed")
    assert FIG20.rows(point) == FIG20.rows(point)
