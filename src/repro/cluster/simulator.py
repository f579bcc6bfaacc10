"""Cluster simulator: N replica runtimes interleaved under one global clock.

:meth:`ClusterSimulator.run` is a dispatch loop over one event queue, a heap
of ``(time, kind, key, payload)`` entries of three kinds, each with its own
handler:

* ``ARRIVAL`` — the next external request (``key`` is its rank in
  ``(arrival_time, request_id)`` order; only the next one is queued).  The
  control plane applies first (autoscale, drain/retire, shed), then the
  request is routed on the replicas' incremental load counters — O(1) per
  replica — and enqueued.
* ``TRANSFER_READY`` — a KV transfer reaching the decode pool (disaggregated
  only; ``key`` is the transfer's sequence number).  The request is routed to
  a decode replica and enqueued there.
* ``REPLICA_READY`` — a replica able to run its next iteration (``key`` is
  the replica id).  It executes one :meth:`ReplicaRuntime.step`; released
  requests either complete (colocated, or decode pool) or spawn a KV transfer
  (disaggregated prefill pool).

At equal times an arrival goes before a transfer and a transfer before a
replica step, so routers see replica load *as of the event time*; equal-time
steps go in replica-id order.  These are the rules the stateful
``ClusterInterleavingMachine`` checks.

Invalidation is eager: a replica has at most one live ``REPLICA_READY``
entry, replaced only when its ``next_ready_time()`` moves — after an enqueue
and after a step, the only operations that move it.  A replaced entry is
dropped unread when popped, so a replica step costs one readiness query and
O(log R) heap work.

With one replica and any router this degenerates to exactly the
``ServingSimulator`` loop — the validation test pins that equivalence — which
is what makes cluster-level results trustworthy extrapolations of the
single-replica model (the "validate against ground truth" discipline of
CounterPoint).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.cluster.metrics import ClusterMetrics, compute_cluster_metrics
from repro.cluster.router import ReplicaLoad, RouterPolicy, get_router
from repro.serving.attention_backend import share_estimate_caches
from repro.serving.kv_cache import KVCacheStats
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request, RequestState

#: Event kinds, numbered in their equal-time priority order.
ARRIVAL, TRANSFER_READY, REPLICA_READY = 0, 1, 2


@dataclass
class ClusterResult:
    """Outcome of one cluster simulation.

    ``requests`` are the simulated copies (the caller's request objects are
    never mutated by :meth:`ClusterSimulator.run`).
    """

    metrics: ClusterMetrics
    requests: list[Request] = field(repr=False, default_factory=list)
    assignments: dict[int, int] = field(repr=False, default_factory=dict)
    decode_assignments: dict[int, int] = field(repr=False, default_factory=dict)
    kv_stats: KVCacheStats = field(repr=False, default_factory=KVCacheStats)

    @property
    def makespan(self) -> float:
        return self.metrics.fleet.makespan

    @property
    def requests_per_minute(self) -> float:
        return self.metrics.fleet.requests_per_minute


@dataclass
class _FleetRun:
    """Everything one :meth:`ClusterSimulator.run` mutates besides the replicas.

    The control-plane fields stay inert without a control plane.  Warming
    replicas have been provisioned but are still cold-starting (no traffic
    yet); draining replicas take no new routes and retire when their last
    request finishes.  ``activated_at`` / ``deactivated_at`` are the
    provisioning ledger replica-seconds are billed from.
    """

    arrivals: list[Request]
    entry_indices: list[int]
    decode_indices: list[int]
    #: Replica id -> its live REPLICA_READY entry (None while drained).
    ready: list[tuple | None]
    live: set[int]
    activated_at: dict[int, float]
    peak_replicas: int
    queue: list[tuple] = field(default_factory=list)
    assignments: dict[int, int] = field(default_factory=dict)
    decode_assignments: dict[int, int] = field(default_factory=dict)
    num_transfers: int = 0
    total_transfer_time: float = 0.0
    warming: dict[int, float] = field(default_factory=dict)  # index -> cold-start end
    draining: set[int] = field(default_factory=set)
    deactivated_at: dict[int, float] = field(default_factory=dict)
    num_scale_ups: int = 0
    num_scale_downs: int = 0

    def push_arrival(self, rank: int) -> None:
        if rank < len(self.arrivals):
            heapq.heappush(self.queue, (self.arrivals[rank].arrival_time, ARRIVAL, rank, None))

    def push_transfer(self, ready_time: float, request: Request) -> None:
        self.num_transfers += 1  # doubles as the FIFO sequence number
        heapq.heappush(self.queue, (ready_time, TRANSFER_READY, self.num_transfers, request))

    def reschedule(self, replica: ReplicaRuntime) -> None:
        """Replace ``replica``'s live ready entry if its next ready time moved."""
        index = replica.replica_id
        ready = replica.next_ready_time()
        live = self.ready[index]
        if ready != (None if live is None else live[0]):
            entry = None if ready is None else (ready, REPLICA_READY, index, None)
            self.ready[index] = entry
            if entry is not None:
                heapq.heappush(self.queue, entry)


class ClusterSimulator:
    """Drives a topology's replica fleet over a shared arrival trace.

    Args:
        topology: A ``ColocatedTopology`` or ``DisaggregatedTopology``.
        router: Policy (name or instance) for external arrivals.
        decode_router: Policy for prefill→decode handoffs in disaggregated
            topologies; defaults to a fresh instance of the same policy.
        keep_iteration_log: Retain per-iteration results on every replica.
        recorder: Optional shared :class:`repro.verify.events.EventRecorder`;
            every replica emits its events onto it (tagged by ``replica_id``)
            and the cluster adds routing / KV-transfer events.  ``None``
            (default) records nothing and costs nothing.  The recorder holds
            the *latest* run's events: ``run()`` clears it on entry, just as
            it rebuilds a used fleet (keep per-run recorders and
            ``merge_events`` to retain multiple streams).
        control: Optional :class:`repro.cluster.control.ControlPlane`
            (colocated topologies only).  Adds autoscaling (replicas join
            after a cold start, leave by draining) and admission control
            (shed requests become ``REJECTED`` instead of routing).  ``None``
            (default) preserves the static-fleet behaviour exactly.
    """

    def __init__(
        self,
        topology,
        router: str | RouterPolicy = "round-robin",
        decode_router: str | RouterPolicy | None = None,
        keep_iteration_log: bool = False,
        recorder=None,
        control=None,
    ) -> None:
        self.topology = topology
        self.keep_iteration_log = keep_iteration_log
        if control is not None and topology.kind != "colocated":
            raise ValueError(
                "the control plane supports colocated topologies only "
                "(disaggregated pools would need per-pool scaling policies)"
            )
        self.control = control
        if recorder is not None:
            # Lazy import: repro.verify imports this module at package init.
            from repro.verify.events import as_sink

            recorder = as_sink(recorder)
        self.recorder = recorder
        self.replicas = topology.build_replicas(
            keep_iteration_log=keep_iteration_log, recorder=recorder
        )
        self.router = get_router(router) if isinstance(router, str) else router
        if decode_router is None:
            # Fresh instance of the same policy class, so custom (unregistered)
            # router implementations work and routing state is not shared.
            self.decode_router = type(self.router)()
        else:
            self.decode_router = (
                get_router(decode_router) if isinstance(decode_router, str) else decode_router
            )
        self._prefill_ids = (
            set(topology.entry_indices) if topology.kind == "disaggregated" else set()
        )
        #: replica id → (cost USD/hour, relative throughput proxy), lazily
        #: filled per replica (the fleet can grow mid-run).
        self._economics: dict[int, tuple[float, float]] = {}

    # ------------------------------------------------------------- loads

    def _replica_economics(self, index: int) -> tuple[float, float]:
        """(USD/hour, perf proxy) of replica ``index``; best-effort.

        Cost comes from the topology's per-replica spec; a fleet whose GPU
        has no price (custom/scaled specs without explicit rates) reads as
        cost 0.0, which every consumer treats as "unpriced/uniform".  The
        perf proxy is the replica's aggregate tensor throughput in PFLOP/s —
        only ratios matter, so any fixed unit works.
        """
        cached = self._economics.get(index)
        if cached is not None:
            return cached
        spec_for = getattr(self.topology, "spec_for", None)
        cost = 0.0
        perf = 1.0
        if spec_for is not None:
            spec = spec_for(index)
            deployment = spec.deployment
            perf = deployment.gpu.tensor_flops * deployment.tensor_parallel / 1e15
            try:
                cost = spec.cost_per_hour
            except ValueError:
                cost = 0.0  # no rate known for this GPU: treat as unpriced
        self._economics[index] = (cost, perf)
        return cost, perf

    def _loads(self, indices: list[int], router: RouterPolicy) -> list[ReplicaLoad]:
        if not router.needs_loads:
            # State-oblivious policies (round-robin) only need the pool size;
            # skip the load snapshot entirely.
            return [ReplicaLoad.zero(index) for index in indices]
        loads = []
        for index in indices:
            replica = self.replicas[index]
            cost, perf = self._replica_economics(index)
            loads.append(
                ReplicaLoad(
                    replica_id=index,
                    num_requests=replica.load_num_requests,
                    outstanding_tokens=replica.load_total_tokens,
                    outstanding_prefill_tokens=replica.load_prefill_tokens,
                    cost_per_hour=cost,
                    perf_weight=perf,
                )
            )
        return loads

    # --------------------------------------------------------------- run

    def run(self, requests: list[Request]) -> ClusterResult:
        """Serve ``requests`` across the fleet and return cluster metrics.

        The caller's request objects are never mutated: the simulation runs
        on fresh copies, which the returned :class:`ClusterResult` carries.
        """
        if not requests:
            raise ValueError("run() requires at least one request")
        requests = [request.fresh_copy() for request in requests]
        run = self._start_run(requests)
        handlers = (self._on_arrival, self._on_transfer_ready, self._on_replica_ready)
        queue = run.queue
        while queue:
            entry = heapq.heappop(queue)
            handlers[entry[1]](run, entry)
        unfinished = [r for r in requests if not r.is_terminal]
        if unfinished:
            raise RuntimeError(
                f"cluster drained with {len(unfinished)} unfinished requests "
                f"(first: {unfinished[0].request_id})"
            )
        return self._result(run, requests)

    def _start_run(self, requests: list[Request]) -> _FleetRun:
        """Reset the fleet, routers and control plane; queue the first arrival."""
        if self.recorder is not None:
            # The recorder describes one run; stale events from a previous
            # trace would read as duplicate lifecycles to the invariant checker.
            self.recorder.clear()
        if (
            any(replica.steps_executed for replica in self.replicas)
            or len(self.replicas) != self.topology.num_replicas
        ):
            # A used fleet carries clocks/counters from the previous trace
            # (and may have been grown by the autoscaler); rebuild so repeated
            # run() calls start from a clean cluster.
            self.replicas = self.topology.build_replicas(
                keep_iteration_log=self.keep_iteration_log, recorder=self.recorder
            )
        self.router.reset()
        self.decode_router.reset()
        self._economics.clear()
        if self.control is not None:
            self.control.reset()
        entry_indices = self.topology.entry_indices
        run = _FleetRun(
            arrivals=sorted(requests, key=lambda r: (r.arrival_time, r.request_id)),
            entry_indices=entry_indices,
            decode_indices=self.topology.decode_indices,
            ready=[None] * len(self.replicas),
            live=set(entry_indices),
            activated_at=dict.fromkeys(entry_indices, 0.0),
            peak_replicas=len(entry_indices),
        )
        run.push_arrival(0)
        return run

    # ----------------------------------------------------------- handlers

    def _on_arrival(self, run: _FleetRun, entry: tuple) -> None:
        rank = entry[2]
        request = run.arrivals[rank]
        run.push_arrival(rank + 1)
        candidates = run.entry_indices
        if self.control is not None:
            candidates = self._apply_control(run, request)
            if candidates is None:
                return  # shed by admission control
        loads = self._loads(candidates, self.router)
        choice = self.router.choose(loads, request)
        target = candidates[choice]
        if self.recorder is not None:
            self.recorder.emit(
                "routed",
                time=request.arrival_time,
                replica_id=target,
                request_id=request.request_id,
                router=self.router.name,
                load_requests=loads[choice].num_requests,
                load_tokens=loads[choice].outstanding_tokens,
                load_prefill_tokens=loads[choice].outstanding_prefill_tokens,
                cost_per_hour=loads[choice].cost_per_hour,
            )
        replica = self.replicas[target]
        replica.enqueue(request)
        run.assignments[request.request_id] = target
        run.reschedule(replica)

    def _on_transfer_ready(self, run: _FleetRun, entry: tuple) -> None:
        ready_time, _, _, request = entry
        loads = self._loads(run.decode_indices, self.decode_router)
        target = run.decode_indices[self.decode_router.choose(loads, request)]
        if self.recorder is not None:
            self.recorder.emit(
                "transfer_delivered",
                time=ready_time,
                replica_id=target,
                request_id=request.request_id,
            )
        replica = self.replicas[target]
        replica.enqueue(request, ready_time=ready_time)
        run.decode_assignments[request.request_id] = target
        run.reschedule(replica)

    def _on_replica_ready(self, run: _FleetRun, entry: tuple) -> None:
        index = entry[2]
        if entry is not run.ready[index]:
            return  # superseded by a reschedule
        run.ready[index] = None
        replica = self.replicas[index]
        outcome = replica.step()
        if self.control is not None:
            for released in outcome.released:
                self.control.note_release(released)
            if index in run.draining and replica.is_drained:
                # Connection draining complete: the replica leaves the fleet
                # at its local clock (its last iteration's end).
                run.draining.remove(index)
                self._retire(run, index, replica.clock)
        if index in self._prefill_ids:
            for request in outcome.released:
                if request.state == RequestState.FINISHED:
                    continue  # single-token outputs finish in the prefill pool
                delay = self.topology.transfer.transfer_time(
                    replica.deployment, request.context_tokens
                )
                run.total_transfer_time += delay
                if self.recorder is not None:
                    self.recorder.emit(
                        "transfer_start",
                        time=replica.clock,
                        replica_id=index,
                        request_id=request.request_id,
                        delay=delay,
                        context_tokens=request.context_tokens,
                    )
                run.push_transfer(replica.clock + delay, request)
        run.reschedule(replica)

    # ------------------------------------------------------ control plane

    def _apply_control(self, run: _FleetRun, request: Request) -> list[int] | None:
        """Scale and admit at ``request``'s arrival.

        Promotes warmed replicas, applies the autoscaler's decision, then
        asks admission control.  Returns the routable replicas, or ``None``
        when the request was shed (it is then ``REJECTED``).
        """
        control = self.control
        now = request.arrival_time
        for index in [i for i, at in run.warming.items() if at <= now]:
            del run.warming[index]
            run.live.add(index)
        outstanding = sum(self.replicas[i].load_num_requests for i in run.live)
        decision = control.autoscale(now, len(run.live), len(run.warming), outstanding)
        if decision > 0:
            self._scale_up(run, now, decision)
        elif decision < 0:
            self._start_drains(run, now, -decision)
        reason = control.admit(request, now, len(run.live), outstanding)
        if reason is None:
            return sorted(run.live)
        if self.recorder is not None:
            self.recorder.emit(
                "rejected",
                time=now,
                request_id=request.request_id,
                reason=reason,
                tenant=request.tenant or "default",
                tier=control.tier_of(request.tenant),
            )
        request.reject(now)
        return None

    def _scale_up(self, run: _FleetRun, now: float, count: int) -> None:
        ready_at = now + self.control.autoscaler.cold_start_s
        for _ in range(count):
            index = len(self.replicas)
            self.replicas.append(
                self.topology.build_replica(
                    index, keep_iteration_log=self.keep_iteration_log, recorder=self.recorder
                )
            )
            run.ready.append(None)
            if self.recorder is not None:
                self.recorder.emit("scaled_up", time=now, replica_id=index, ready_at=ready_at)
            run.activated_at[index] = now
            run.num_scale_ups += 1
            if ready_at <= now:
                run.live.add(index)
            else:
                run.warming[index] = ready_at
        # New backends adopt the fleet's warmed memo.
        share_estimate_caches(replica.backend for replica in self.replicas)
        run.peak_replicas = max(run.peak_replicas, len(run.live) + len(run.warming))

    def _start_drains(self, run: _FleetRun, now: float, count: int) -> None:
        for _ in range(count):
            victim = min(run.live, key=lambda i: (self.replicas[i].load_num_requests, i))
            run.live.remove(victim)
            run.num_scale_downs += 1
            if self.recorder is not None:
                self.recorder.emit("drain_started", time=now, replica_id=victim)
            replica = self.replicas[victim]
            if replica.is_drained:
                # Nothing outstanding: retires on the spot.
                self._retire(run, victim, max(now, replica.clock))
            else:
                run.draining.add(victim)

    def _retire(self, run: _FleetRun, index: int, end: float) -> None:
        run.deactivated_at[index] = end
        if self.recorder is not None:
            self.recorder.emit("scaled_down", time=end, replica_id=index)

    # ------------------------------------------------------------ result

    def _result(self, run: _FleetRun, requests: list[Request]) -> ClusterResult:
        makespan = max(replica.clock for replica in self.replicas)
        replica_seconds = None
        replica_active_seconds: dict[int, float] | None = None
        if self.control is not None:
            # Provisioning cost ledger: every replica is billed from its
            # activation (t=0 for the initial fleet, the scale-up decision for
            # grown replicas — cold starts are paid for) until it retires or,
            # if still serving, the run ends.  The same ledger prices each
            # replica individually for the dollar accounting.
            replica_active_seconds = {
                index: max(0.0, run.deactivated_at.get(index, makespan) - start)
                for index, start in run.activated_at.items()
            }
            replica_seconds = sum(replica_active_seconds.values())
        replica_costs = {
            replica.replica_id: self._replica_economics(replica.replica_id)[0]
            for replica in self.replicas
        }
        metrics = compute_cluster_metrics(
            requests,
            self.replicas,
            makespan=makespan,
            topology=self.topology.kind,
            router=self.router.name,
            num_kv_transfers=run.num_transfers,
            total_kv_transfer_time=run.total_transfer_time,
            replica_seconds=replica_seconds,
            num_scale_ups=run.num_scale_ups,
            num_scale_downs=run.num_scale_downs,
            peak_replicas=run.peak_replicas if self.control is not None else None,
            replica_costs=replica_costs,
            replica_active_seconds=replica_active_seconds,
        )
        kv_stats = KVCacheStats()
        for replica in self.replicas:
            kv_stats = kv_stats.merge(replica.kv_cache.stats)
        return ClusterResult(
            metrics=metrics,
            requests=requests,
            assignments=run.assignments,
            decode_assignments=run.decode_assignments,
            kv_stats=kv_stats,
        )
