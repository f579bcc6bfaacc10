"""Synthetic workload generators (compatibility wrappers).

The paper's online evaluation uses two traces: an internal enterprise workload
(mean context ≈ 10.5K tokens, prefill:decode token ratio 0–40, mean ≈ 331
decode tokens per request) and a workload derived from arXiv-Summarization
(mean context ≈ 9.5K tokens, P:D 0–50, mean ≈ 470 decode tokens).  Neither
trace is publicly available in raw form, so these generators reproduce the
published summary statistics with a seeded RNG.  Offline workloads (Figure 12,
Figure 15) use fixed token counts and are generated exactly.

The implementations now live in :mod:`repro.workloads` (shape models, arrival
processes, the scenario registry); this module keeps the historical public
API as thin wrappers.  The wrapped generators draw the same RNG sequence as
before the refactor, so seeded traces are byte-identical — pinned by
``tests/test_golden_results.py``.
"""

from __future__ import annotations

from repro.serving.request import Request
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.shapes import (
    ArxivShape,
    InternalShape,
    WorkloadStats,
    describe_workload,
    pd_ratio_workload,
    uniform_workload,
)

__all__ = [
    "WORKLOAD_GENERATORS",
    "WorkloadStats",
    "arxiv_workload",
    "describe_workload",
    "get_workload",
    "internal_workload",
    "pd_ratio_workload",
    "uniform_workload",
    "with_poisson_arrivals",
]


def internal_workload(
    num_requests: int = 2048,
    seed: int = 0,
    mean_context_tokens: float = 10_500.0,
) -> list[Request]:
    """Synthetic stand-in for the paper's internal enterprise workload.

    Matches the published statistics: mean context ≈ 10.5K tokens, contexts
    within 4K–32K, P:D ratio in 0–40 with a prefill-heavy skew (mean decode
    length ≈ 331 tokens).
    """
    return InternalShape(mean_context_tokens).build(num_requests, seed=seed)


def arxiv_workload(
    num_requests: int = 2048,
    seed: int = 1,
    mean_context_tokens: float = 9_500.0,
) -> list[Request]:
    """Synthetic stand-in for the arXiv-Summarization workload.

    Mean context ≈ 9.5K tokens, P:D ratio in 0–50, and about 42% more decode
    tokens per request than the internal workload (mean ≈ 470).
    """
    return ArxivShape(mean_context_tokens).build(num_requests, seed=seed)


def with_poisson_arrivals(
    requests: list[Request], qps: float, seed: int = 0
) -> list[Request]:
    """Assign Poisson arrival times (rate ``qps``) to a request list, in place."""
    return PoissonArrivals(qps).assign(requests, seed=seed)


WORKLOAD_GENERATORS = {
    "internal": internal_workload,
    "arxiv": arxiv_workload,
}


def get_workload(name: str, num_requests: int = 2048, seed: int = 0) -> list[Request]:
    """Build a named online workload (``"internal"`` or ``"arxiv"``)."""
    key = name.lower()
    if key not in WORKLOAD_GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOAD_GENERATORS)}")
    return WORKLOAD_GENERATORS[key](num_requests=num_requests, seed=seed)
