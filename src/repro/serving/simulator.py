"""End-to-end serving simulator (offline and online).

Drives the scheduler / engine / KV-cache loop over a set of requests with
arrival times, producing the request-level records from which the paper's
throughput and latency metrics are computed.  Offline runs simply set every
arrival time to zero; online runs use Poisson arrivals (``repro.serving.trace``).

The iteration loop itself lives in :class:`repro.serving.replica.ReplicaRuntime`;
this module drives one runtime to completion.  ``repro.cluster`` drives many of
them under a shared global clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.models.config import Deployment
from repro.models.linear_ops import LinearCostParams
from repro.serving.attention_backend import AttentionBackend, FASerialBackend
from repro.serving.engine import InferenceEngine, IterationResult
from repro.serving.kv_cache import KVCacheConfig, KVCacheStats
from repro.serving.metrics import ServingMetrics, compute_metrics
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler
from repro.serving.scheduler_sarathi import SarathiScheduler


@dataclass
class SimulationResult:
    """Outcome of one serving simulation."""

    metrics: ServingMetrics
    requests: list[Request] = field(repr=False, default_factory=list)
    iteration_log: list[IterationResult] = field(repr=False, default_factory=list)
    kv_stats: KVCacheStats = field(repr=False, default_factory=KVCacheStats)

    @property
    def makespan(self) -> float:
        return self.metrics.makespan

    @property
    def requests_per_minute(self) -> float:
        return self.metrics.requests_per_minute


class ServingSimulator:
    """Simulates serving a request trace on one deployment with one scheduler/backend."""

    def __init__(
        self,
        deployment: Deployment,
        scheduler: Scheduler | None = None,
        backend: AttentionBackend | None = None,
        kv_config: KVCacheConfig | None = None,
        linear_params: LinearCostParams | None = None,
        keep_iteration_log: bool = False,
        max_iterations: int = 2_000_000,
        recorder=None,
    ) -> None:
        self.deployment = deployment
        self.scheduler = scheduler or SarathiScheduler()
        self.backend = backend or FASerialBackend(deployment)
        self.kv_config = kv_config or KVCacheConfig.for_deployment(deployment)
        self.engine = InferenceEngine(deployment, self.backend, linear_params)
        self.keep_iteration_log = keep_iteration_log
        self.max_iterations = max_iterations
        if recorder is not None:
            # Lazy import: repro.verify reaches this module via the cluster
            # layer, so a top-level import would be a cycle.
            from repro.verify.events import as_sink

            recorder = as_sink(recorder)
        self.recorder = recorder
        #: The last run's KV-cache manager (post-drain inspection / the
        #: drain-balance invariant); None until :meth:`run` completes.
        self.kv_cache = None

    def run(self, requests: list[Request]) -> SimulationResult:
        """Serve ``requests`` to completion and return aggregated metrics.

        When a recorder is attached it is cleared on entry, so after ``run()``
        it holds exactly this run's event stream (checkable in isolation).
        """
        if not requests:
            raise ValueError("run() requires at least one request")
        if self.recorder is not None:
            self.recorder.clear()
        runtime = ReplicaRuntime(
            self.deployment,
            scheduler=self.scheduler,
            backend=self.backend,
            kv_config=self.kv_config,
            engine=self.engine,
            keep_iteration_log=self.keep_iteration_log,
            max_iterations=self.max_iterations,
            recorder=self.recorder,
        )
        for request in requests:
            runtime.enqueue(request)
        runtime.run_to_completion()
        self.kv_cache = runtime.kv_cache

        metrics = compute_metrics(
            requests,
            makespan=runtime.clock,
            num_iterations=self.engine.total_iterations,
            hybrid_iterations=self.engine.hybrid_iterations,
        )
        return SimulationResult(
            metrics=metrics,
            requests=requests,
            iteration_log=runtime.iteration_log,
            kv_stats=runtime.kv_cache.stats,
        )


def simulate_offline(
    deployment: Deployment,
    requests: list[Request],
    scheduler: Scheduler,
    backend: AttentionBackend,
    **kwargs,
) -> SimulationResult:
    """Convenience wrapper for offline (all-requests-at-time-zero) serving.

    The caller's request objects are left untouched: the simulation runs on
    fresh copies with ``arrival_time == 0`` and the returned
    :class:`SimulationResult` carries those copies.
    """
    offline_requests = [request.fresh_copy(arrival_time=0.0) for request in requests]
    simulator = ServingSimulator(deployment, scheduler, backend, **kwargs)
    return simulator.run(offline_requests)
