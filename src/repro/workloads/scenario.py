"""Scenario registry: named, composable workload scenarios.

A scenario is (arrival process) × (shape mix or multi-tenant composition)
with a default offered load and trace size — everything needed to build a
deterministic request trace from a name::

    from repro.workloads import build_scenario
    requests = build_scenario("rag-burst", num_requests=64, seed=3)

``SCENARIOS`` is consumed by :func:`run_scenario` (for either simulator),
the cluster sweep runner (any scenario name is a valid
``ClusterSweepPoint.workload``) and the Figure 17 scenario sweep benchmark.  Builds are pure functions of ``(name, num_requests, seed,
qps)``: the same arguments always yield an identical trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.serving.request import Request
from repro.workloads.arrivals import get_arrival_process
from repro.workloads.shapes import get_shape
from repro.workloads.tenants import (
    SLO_CLASSES,
    SLOClass,
    TenantSpec,
    compose_tenants,
    slo_targets,
)


@dataclass(frozen=True)
class Scenario:
    """One named workload scenario (arrival process × shape mix × tenants)."""

    name: str
    description: str
    arrival: str
    qps: float
    shape: str | None = None
    tenants: tuple[TenantSpec, ...] = ()
    arrival_params: Mapping[str, Any] = field(default_factory=dict)
    num_requests: int = 256
    figure: str = "Fig. 17"

    def __post_init__(self) -> None:
        if (self.shape is None) == (not self.tenants):
            raise ValueError(
                f"scenario {self.name!r} must set exactly one of shape / tenants"
            )

    @property
    def shape_mix(self) -> str:
        """Human-readable shape description (registry table / README)."""
        if self.shape is not None:
            return self.shape
        return " + ".join(
            f"{t.name}:{t.shape}({t.slo.name})" for t in self.tenants
        )

    def slo_targets(self) -> dict[str, SLOClass]:
        """Tenant name → SLO class (empty for single-shape scenarios)."""
        return slo_targets(self.tenants)

    def build(
        self,
        num_requests: int | None = None,
        seed: int = 0,
        qps: float | None = None,
    ) -> list[Request]:
        """Materialise the scenario as a trace with arrival times assigned.

        Shapes are drawn from ``seed`` and arrivals from ``seed + 1``, so one
        seed pins the whole trace.
        """
        count = num_requests if num_requests is not None else self.num_requests
        rate = qps if qps is not None else self.qps
        if self.tenants:
            requests = compose_tenants(self.tenants, count, seed=seed)
        else:
            requests = get_shape(self.shape).build(count, seed=seed)
        process = get_arrival_process(self.arrival, rate, **dict(self.arrival_params))
        return process.assign(requests, seed=seed + 1)


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="enterprise-internal",
            description="The paper's internal enterprise trace under Poisson load",
            arrival="poisson",
            qps=1.1,
            shape="internal",
            figure="Tab. 5",
        ),
        Scenario(
            name="arxiv-summarization",
            description="arXiv-Summarization trace under Poisson load",
            arrival="poisson",
            qps=0.85,
            shape="arxiv",
            figure="Tab. 6 / Fig. 16",
        ),
        Scenario(
            name="long-summarization-burst",
            description="8K-32K document summarization arriving in gamma bursts",
            arrival="gamma-burst",
            qps=0.5,
            shape="long-summarization",
            arrival_params={"burstiness": 4.0},
        ),
        Scenario(
            name="short-chat-diurnal",
            description="Interactive chat with a sinusoidal day/night rate",
            arrival="diurnal",
            qps=8.0,
            shape="short-chat",
            arrival_params={"period": 240.0, "depth": 0.6},
        ),
        Scenario(
            name="rag-burst",
            description="RAG: huge stuffed-context prefill, tiny answers, bursty",
            arrival="gamma-burst",
            qps=0.7,
            shape="rag",
            arrival_params={"burstiness": 6.0},
        ),
        Scenario(
            name="code-completion-surge",
            description="IDE completions with a 3x step surge mid-trace",
            arrival="step-surge",
            qps=4.0,
            shape="code-completion",
            arrival_params={
                "surge_factor": 3.0,
                "surge_start": 10.0,
                "surge_duration": 30.0,
            },
        ),
        Scenario(
            name="shared-prefix-chat",
            description="Chat behind 4 hot system prompts; prefix-cache friendly",
            arrival="poisson",
            qps=5.0,
            shape="shared-prefix-chat",
            figure="Fig. 19",
        ),
        Scenario(
            name="rag-corpus",
            description="RAG over 8 hot corpus documents, bursty, prefill-bound",
            arrival="gamma-burst",
            qps=1.0,
            shape="rag-corpus",
            arrival_params={"burstiness": 3.0},
            figure="Fig. 19",
        ),
        Scenario(
            name="multi-tenant-slo",
            description="Chat + RAG + summarization tenants with tiered SLOs",
            arrival="poisson",
            qps=2.0,
            tenants=(
                TenantSpec("chat", "short-chat", SLO_CLASSES["interactive"], weight=2.0),
                TenantSpec("rag", "rag", SLO_CLASSES["standard"], weight=1.0),
                TenantSpec(
                    "summarize", "long-summarization", SLO_CLASSES["batch"], weight=1.0
                ),
            ),
        ),
        Scenario(
            name="surge-multi-tenant",
            description="Tiered chat/RAG/batch tenants hit by a mid-trace surge",
            arrival="step-surge",
            qps=2.0,
            tenants=(
                TenantSpec("chat", "short-chat", SLO_CLASSES["interactive"], weight=2.0),
                TenantSpec("rag", "rag", SLO_CLASSES["standard"], weight=1.0),
                TenantSpec(
                    "summarize", "long-summarization", SLO_CLASSES["batch"], weight=1.0
                ),
            ),
            arrival_params={
                "surge_factor": 3.0,
                "surge_start": 15.0,
                "surge_duration": 45.0,
                "ramp": 5.0,
            },
            figure="Fig. 20",
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    key = name.lower()
    if key not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}")
    return SCENARIOS[key]


def build_scenario(
    name: str,
    num_requests: int | None = None,
    seed: int = 0,
    qps: float | None = None,
) -> list[Request]:
    """Build a named scenario's trace (see :meth:`Scenario.build`)."""
    return get_scenario(name).build(num_requests=num_requests, seed=seed, qps=qps)


def run_scenario(
    name: str,
    *,
    simulator: Any | None = None,
    num_requests: int | None = None,
    seed: int = 0,
    qps: float | None = None,
    overrides: Mapping[str, Any] | None = None,
    recorder: Any | None = None,
    control: Any | None = None,
    spec: Any | None = None,
    model: str = "llama-3-8b",
    replicas: int = 1,
    topology: str = "colocated",
    router: str = "least-tokens",
    chunk_size: int = 1024,
    backend: str = "pod",
    kv_config: Any | None = None,
) -> Any:
    """Serve a registered scenario — the one entry point for every simulator.

    This is the shared keyword surface behind the bench row builders, the
    oracles, the operator CLI and the observability report CLI:

    * ``simulator=`` runs the trace on an already-configured simulator (its
      own scheduler/backend/fleet govern; passing fleet-building keywords
      alongside is an error).
    * Otherwise a simulator is built here: a single-replica
      ``ServingSimulator`` (Sarathi chunking + the named attention backend),
      or — when ``spec``/``replicas > 1``/a non-colocated ``topology``/a
      ``control`` plane asks for one — a ``ClusterSimulator`` over
      ``topology_from_spec``.  ``spec`` may be any
      :class:`repro.models.config.ClusterSpec`, including heterogeneous
      ``replicas=[...]`` fleets.

    ``overrides`` is a mapping of :class:`Scenario` field replacements
    (``dataclasses.replace``) applied before the trace is built, e.g.
    ``{"qps": 3.0}`` or ``{"arrival": "gamma-burst"}``.  Builds stay pure
    functions of ``(name, overrides, num_requests, seed, qps)``.

    Returns the simulator's own result type (``SimulationResult`` for a
    single replica, ``ClusterResult`` for a fleet).
    """
    import dataclasses

    scenario = get_scenario(name)
    if overrides:
        scenario = dataclasses.replace(scenario, **dict(overrides))
    requests = scenario.build(num_requests=num_requests, seed=seed, qps=qps)

    if simulator is not None:
        conflicting = {
            "recorder": recorder is not None,
            "control": control is not None,
            "spec": spec is not None,
            "kv_config": kv_config is not None,
            "replicas": replicas != 1,
            "topology": topology != "colocated",
        }
        bad = sorted(key for key, hit in conflicting.items() if hit)
        if bad:
            raise ValueError(
                f"simulator= carries its own configuration; also passing {bad} "
                "is ambiguous (configure the simulator instead)"
            )
        return simulator.run(requests)

    # Lazy imports: the serving/cluster layers import repro.workloads, so
    # importing them at module scope here would be a cycle.
    from repro.models.config import ClusterSpec, paper_deployment

    if spec is not None and (replicas != 1 or topology != "colocated"):
        raise ValueError(
            "spec= already fixes the fleet size and topology; also passing "
            "replicas=/topology= is ambiguous"
        )
    wants_cluster = (
        spec is not None or replicas != 1 or topology != "colocated" or control is not None
    )
    if not wants_cluster:
        from repro.serving.attention_backend import get_backend
        from repro.serving.scheduler_sarathi import SarathiScheduler
        from repro.serving.simulator import ServingSimulator

        deployment = paper_deployment(model)
        sim = ServingSimulator(
            deployment,
            scheduler=SarathiScheduler(chunk_size=chunk_size),
            backend=get_backend(backend, deployment),
            kv_config=kv_config,
            recorder=recorder,
        )
        return sim.run(requests)

    from repro.cluster.simulator import ClusterSimulator
    from repro.cluster.topology import topology_from_spec

    if spec is None:
        spec = ClusterSpec(paper_deployment(model), max(replicas, 1), topology=topology)
    built = topology_from_spec(spec, chunk_size=chunk_size, backend=backend)
    if kv_config is not None:
        built.kv_config = kv_config
    sim = ClusterSimulator(built, router=router, recorder=recorder, control=control)
    return sim.run(requests)


def scenario_table() -> list[dict[str, str]]:
    """Registry overview rows (name, arrival, shape mix, figure) for docs/CLI."""
    return [
        {
            "scenario": scenario.name,
            "arrival": scenario.arrival,
            "shape_mix": scenario.shape_mix,
            "qps": f"{scenario.qps:g}",
            "figure": scenario.figure,
        }
        for scenario in SCENARIOS.values()
    ]
