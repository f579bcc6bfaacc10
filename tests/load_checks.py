"""Test hook: check the cluster's load counters at every routing decision.

``ClusterSimulator`` routes on the O(1) load counters each ``ReplicaRuntime``
maintains incrementally.  :func:`load_checked_simulator` builds a simulator
whose routers, before every choice, compare each replica's counters against
a reference ``scan_load()`` (the ``load-accounting`` invariant) and the load
snapshots they were handed against the same scans, then delegate to the
named policy.  Any drift raises :class:`InvariantViolationError`.
"""

from __future__ import annotations

from repro.cluster import ClusterSimulator
from repro.cluster.router import ReplicaLoad, RouterPolicy, get_router
from repro.serving.request import Request
from repro.verify.invariants import (
    InvariantViolationError,
    Violation,
    check_replica_load_counters,
)


class LoadCheckingRouter(RouterPolicy):
    """Delegates to a registered policy after checking the fleet's counters."""

    def __init__(self, inner: str) -> None:
        self.inner = get_router(inner)
        self.name = self.inner.name
        self.needs_loads = self.inner.needs_loads
        self.simulator: ClusterSimulator | None = None  # bound after construction
        self.checks = 0

    def choose(self, loads: list[ReplicaLoad], request: Request) -> int:
        replicas = self.simulator.replicas
        violations = check_replica_load_counters(replicas)
        if self.needs_loads:
            for load in loads:
                snapshot = (
                    load.num_requests,
                    load.outstanding_tokens,
                    load.outstanding_prefill_tokens,
                )
                scanned = replicas[load.replica_id].scan_load()
                if snapshot != scanned:
                    violations.append(
                        Violation(
                            "load-accounting",
                            f"routed on snapshot {snapshot} != scanned load {scanned}",
                            replica_id=load.replica_id,
                        )
                    )
        if violations:
            raise InvariantViolationError(violations)
        self.checks += 1
        return self.inner.choose(loads, request)

    def reset(self) -> None:
        self.inner.reset()


def load_checked_simulator(topology, router: str, **kwargs) -> ClusterSimulator:
    """A ``ClusterSimulator`` whose entry and decode routers check loads."""
    entry, decode = LoadCheckingRouter(router), LoadCheckingRouter(router)
    simulator = ClusterSimulator(topology, router=entry, decode_router=decode, **kwargs)
    entry.simulator = decode.simulator = simulator
    return simulator
