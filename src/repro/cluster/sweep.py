"""Parallel cluster sweeps: replica-count × router × topology × load grids.

Each grid point is a self-contained, picklable description of one cluster
simulation (model and workload by name, scalar knobs only), so the runner can
fan points across processes with ``concurrent.futures.ProcessPoolExecutor`` —
the parallel-rollout pattern — while staying runnable serially for debugging
(``parallel=False``) or inside environments without fork.

Offered load scales with the fleet: a point at ``qps_per_replica`` and
``num_replicas`` replays ``requests_per_replica * num_replicas`` requests at
``qps_per_replica * num_replicas`` QPS, keeping per-replica pressure constant
so throughput/latency comparisons across cluster sizes are iso-load.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.topology import topology_from_spec
from repro.models.config import ClusterSpec, KVTransferModel, paper_deployment
from repro.serving.request import Request
from repro.serving.trace import WORKLOAD_GENERATORS, get_workload, with_poisson_arrivals
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ClusterSweepPoint:
    """One cluster configuration in a sweep (fully picklable)."""

    num_replicas: int
    router: str = "round-robin"
    topology: str = "colocated"
    model: str = "llama-3-8b"
    workload: str = "arxiv"
    qps_per_replica: float = 0.85
    requests_per_replica: int = 24
    chunk_size: int = 1024
    prefill_replicas: int = 0  # disaggregated only; 0 = auto split
    kv_link_bandwidth: float | None = None  # None = KVTransferModel default
    kv_link_latency: float | None = None  # None = KVTransferModel default
    backend: str = "pod"
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_replicas", self.num_replicas)
        check_positive("qps_per_replica", self.qps_per_replica)
        check_positive("requests_per_replica", self.requests_per_replica)

    @property
    def num_requests(self) -> int:
        return self.num_replicas * self.requests_per_replica

    @property
    def qps(self) -> float:
        return self.qps_per_replica * self.num_replicas

    def label(self) -> str:
        return f"{self.topology}/{self.router}/x{self.num_replicas}@{self.qps:.2f}qps"


def build_point_trace(point: ClusterSweepPoint) -> list[Request]:
    """Build the request trace for one grid point.

    ``point.workload`` is either a legacy generator name (``internal`` /
    ``arxiv``, Poisson arrivals — byte-compatible with earlier sweeps) or any
    scenario from ``repro.workloads.SCENARIOS``, whose own arrival process is
    scaled to the point's fleet-wide QPS.
    """
    if point.workload in WORKLOAD_GENERATORS:
        requests = get_workload(point.workload, num_requests=point.num_requests, seed=point.seed)
        return with_poisson_arrivals(requests, qps=point.qps, seed=point.seed + 1)
    from repro.workloads.scenario import build_scenario

    return build_scenario(
        point.workload, num_requests=point.num_requests, seed=point.seed, qps=point.qps
    )


def run_sweep_point(point: ClusterSweepPoint) -> dict[str, Any]:
    """Simulate one grid point and return a flat result row."""
    deployment = paper_deployment(point.model)
    requests = build_point_trace(point)
    transfer_kwargs = {}
    if point.kv_link_bandwidth is not None:
        transfer_kwargs["bandwidth"] = point.kv_link_bandwidth
    if point.kv_link_latency is not None:
        transfer_kwargs["latency"] = point.kv_link_latency
    spec = ClusterSpec(
        deployment=deployment,
        num_replicas=point.num_replicas,
        topology=point.topology,
        prefill_replicas=point.prefill_replicas,
        transfer=KVTransferModel(**transfer_kwargs),
    )
    topology = topology_from_spec(spec, chunk_size=point.chunk_size, backend=point.backend)
    simulator = ClusterSimulator(topology, router=point.router)
    result = simulator.run(requests)
    row: dict[str, Any] = {
        "model": point.model,
        "workload": point.workload,
        "qps": round(point.qps, 3),
        "requests": point.num_requests,
        "gpus": spec.total_gpus,
    }
    row.update(result.metrics.as_row())
    return row


def run_cluster_sweep(
    points: Sequence[ClusterSweepPoint],
    max_workers: int | None = None,
    parallel: bool = True,
    host_profiler=None,
) -> list[dict[str, Any]]:
    """Run every grid point, fanning across processes when ``parallel``.

    Results come back in input order regardless of completion order.  Serial
    execution is used automatically for trivial grids or ``max_workers=1``.

    ``host_profiler`` (a :class:`repro.obs.profiling.HostProfiler`) is
    started/stopped around the whole sweep when given, so benchmark harnesses
    can record the sweep's wall/CPU/peak-RSS cost; worker-process RSS is
    outside ``RUSAGE_SELF``, so parallel sweeps report the parent only.
    """
    points = list(points)
    if not points:
        return []
    if host_profiler is not None:
        host_profiler.start()
    try:
        if not parallel or max_workers == 1 or len(points) == 1:
            return [run_sweep_point(point) for point in points]
        if max_workers is None:
            max_workers = min(len(points), os.cpu_count() or 2)
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(run_sweep_point, points))
    finally:
        if host_profiler is not None:
            host_profiler.stop()
