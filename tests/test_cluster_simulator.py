"""Tests for the cluster simulator: single-replica equivalence, colocated
scaling, and prefill/decode disaggregation."""

from __future__ import annotations

import pytest

from repro.cluster import (
    ClusterSimulator,
    ColocatedTopology,
    DisaggregatedTopology,
    KVTransferModel,
    topology_from_spec,
)
from repro.models.config import ClusterSpec
from repro.serving.attention_backend import FASerialBackend
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request, RequestState
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import arxiv_workload, uniform_workload, with_poisson_arrivals
from repro.verify.invariants import InvariantViolationError
from repro.workloads import build_scenario

from load_checks import load_checked_simulator


def tab06_trace(num_requests: int = 64):
    """The Table 6 arXiv-Summarization online trace (scaled request count)."""
    return with_poisson_arrivals(arxiv_workload(num_requests, seed=17), qps=0.85, seed=18)


class TestSingleReplicaEquivalence:
    """A 1-replica cluster with pass-through routing must reproduce the
    single-replica ServingSimulator on the tab06 arxiv trace (ISSUE acceptance:
    within 1%; the shared stepping core makes it exact)."""

    @pytest.fixture(scope="class")
    def pair(self, llama3_deployment):
        single = ServingSimulator(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=1024),
            backend=FASerialBackend(llama3_deployment),
        ).run(tab06_trace())
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_factory=lambda: FASerialBackend(llama3_deployment),
        )
        cluster = ClusterSimulator(topology, router="round-robin").run(tab06_trace())
        return single.metrics, cluster.metrics.fleet

    @pytest.mark.parametrize(
        "metric",
        [
            "requests_per_minute",
            "makespan",
            "num_iterations",
            "ttft_p50",
            "ttft_p99",
            "tbt_p50",
            "tbt_p99",
            "latency_p50",
            "latency_p99",
            "stall_fraction_200ms",
            "hybrid_iteration_fraction",
        ],
    )
    def test_metric_within_one_percent(self, pair, metric):
        single, fleet = pair
        assert getattr(fleet, metric) == pytest.approx(getattr(single, metric), rel=0.01)

    def test_makespan_exact(self, pair):
        single, fleet = pair
        assert fleet.makespan == pytest.approx(single.makespan, rel=1e-9)


class TestColocatedCluster:
    @pytest.fixture(scope="class")
    def result(self, llama3_deployment):
        requests = with_poisson_arrivals(arxiv_workload(48, seed=5), qps=0.85 * 2, seed=6)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        return ClusterSimulator(topology, router="least-tokens").run(requests)

    def test_all_requests_finish(self, result):
        assert all(request.is_finished for request in result.requests)

    def test_every_request_assigned_once(self, result):
        assert sorted(result.assignments) == sorted(r.request_id for r in result.requests)

    def test_replica_stats(self, result):
        metrics = result.metrics
        assert metrics.num_replicas == 2
        assert all(stats.role == "hybrid" for stats in metrics.replicas)
        assert sum(stats.requests_released for stats in metrics.replicas) == len(result.requests)
        assert 0.0 < metrics.mean_utilization <= 1.0
        assert metrics.min_utilization <= metrics.max_utilization

    def test_no_transfers_in_colocated(self, result):
        assert result.metrics.num_kv_transfers == 0
        assert result.decode_assignments == {}

    def test_two_replicas_beat_one(self, llama3_deployment, result):
        single = ServingSimulator(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=1024),
        ).run(with_poisson_arrivals(arxiv_workload(48, seed=5), qps=0.85 * 2, seed=6))
        assert result.metrics.fleet.makespan < single.metrics.makespan

    def test_row_shape(self, result):
        row = result.metrics.as_row()
        assert row["topology"] == "colocated"
        assert row["router"] == "least-tokens"
        assert row["replicas"] == 2


class TestDisaggregatedCluster:
    @pytest.fixture(scope="class")
    def result(self, llama3_deployment):
        requests = with_poisson_arrivals(arxiv_workload(48, seed=5), qps=0.85 * 2, seed=6)
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        return ClusterSimulator(topology, router="round-robin").run(requests)

    def test_all_requests_finish(self, result):
        assert all(request.is_finished for request in result.requests)

    def test_every_multi_token_request_transferred(self, result):
        multi_token = [r for r in result.requests if r.decode_tokens > 1]
        assert result.metrics.num_kv_transfers == len(multi_token)
        assert sorted(result.decode_assignments) == sorted(r.request_id for r in multi_token)

    def test_roles_split(self, result):
        roles = [stats.role for stats in result.metrics.replicas]
        assert roles == ["prefill", "decode"]

    def test_transfer_time_positive(self, result):
        assert result.metrics.total_kv_transfer_time > 0
        assert result.metrics.mean_kv_transfer_time > 0

    def test_decode_pool_has_no_hybrid_iterations(self, result):
        prefill_stats, decode_stats = result.metrics.replicas
        assert prefill_stats.num_iterations > 0
        assert decode_stats.num_iterations > 0
        assert result.metrics.fleet.hybrid_iteration_fraction == 0.0

    def test_decode_tbt_cleaner_than_colocated(self, llama3_deployment, result):
        """The disaggregation win: decodes never share an iteration with
        prefill chunks, so tail TBT drops versus colocated hybrid serving."""
        requests = with_poisson_arrivals(arxiv_workload(48, seed=5), qps=0.85 * 2, seed=6)
        colocated = ClusterSimulator(
            ColocatedTopology(
                llama3_deployment,
                num_replicas=2,
                scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            ),
            router="round-robin",
        ).run(requests)
        assert result.metrics.fleet.tbt_p99 < colocated.metrics.fleet.tbt_p99


class TestTopologyFromSpec:
    def test_colocated_spec(self, llama3_deployment):
        spec = ClusterSpec(llama3_deployment, num_replicas=3)
        topology = topology_from_spec(spec)
        assert topology.kind == "colocated"
        assert topology.entry_indices == [0, 1, 2]

    def test_disaggregated_spec_auto_split(self, llama3_deployment):
        spec = ClusterSpec(llama3_deployment, num_replicas=5, topology="disaggregated")
        topology = topology_from_spec(spec)
        assert topology.kind == "disaggregated"
        assert topology.num_prefill == 2
        assert topology.num_decode == 3
        assert topology.entry_indices == [0, 1]
        assert topology.decode_indices == [2, 3, 4]

    def test_spec_validation(self, llama3_deployment):
        with pytest.raises(ValueError):
            ClusterSpec(llama3_deployment, num_replicas=1, topology="disaggregated")
        with pytest.raises(ValueError):
            ClusterSpec(llama3_deployment, num_replicas=2, topology="ring")
        with pytest.raises(ValueError):
            ClusterSpec(
                llama3_deployment, num_replicas=2, topology="disaggregated", prefill_replicas=2
            )

    def test_total_gpus(self, llama3_deployment, yi_deployment):
        assert ClusterSpec(llama3_deployment, num_replicas=4).total_gpus == 8  # TP-2
        assert ClusterSpec(yi_deployment, num_replicas=4).total_gpus == 4  # TP-1

    def test_transfer_model_scales_with_context(self, llama3_deployment):
        model = KVTransferModel(bandwidth=64e9, latency=1e-3)
        short = model.transfer_time(llama3_deployment, 1024)
        long = model.transfer_time(llama3_deployment, 8192)
        assert long > short > 1e-3


class TestClusterValidation:
    def test_empty_request_list_rejected(self, llama3_deployment):
        topology = ColocatedTopology(llama3_deployment, num_replicas=1)
        with pytest.raises(ValueError):
            ClusterSimulator(topology).run([])

    def test_offline_burst(self, llama3_deployment):
        """All-at-time-zero arrivals spread across replicas and finish."""
        requests = uniform_workload(12, prefill_tokens=4096, decode_tokens=64)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=3,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        result = ClusterSimulator(topology, router="round-robin").run(requests)
        assert all(r.is_finished for r in result.requests)
        per_replica = {}
        for request_id, replica in result.assignments.items():
            per_replica[replica] = per_replica.get(replica, 0) + 1
        assert per_replica == {0: 4, 1: 4, 2: 4}

    def test_custom_unregistered_router_instance(self, llama3_deployment):
        """A RouterPolicy subclass that is not in the registry works as-is."""
        from repro.cluster.router import RouterPolicy

        class AlwaysFirstRouter(RouterPolicy):
            name = "always-first"
            needs_loads = False

            def choose(self, loads, request):
                return 0

        requests = uniform_workload(4, prefill_tokens=1024, decode_tokens=8)
        topology = ColocatedTopology(llama3_deployment, num_replicas=2)
        result = ClusterSimulator(topology, router=AlwaysFirstRouter()).run(requests)
        assert all(r.is_finished for r in result.requests)
        assert set(result.assignments.values()) == {0}

    def test_repeated_run_starts_from_clean_fleet(self, llama3_deployment):
        """Back-to-back run() calls must not leak clocks/counters across traces."""
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(topology, router="round-robin")
        first = simulator.run(uniform_workload(4, prefill_tokens=2048, decode_tokens=16))
        second = simulator.run(uniform_workload(4, prefill_tokens=2048, decode_tokens=16))
        assert second.metrics.fleet.makespan == pytest.approx(
            first.metrics.fleet.makespan, rel=1e-9
        )
        assert second.metrics.fleet.num_iterations == first.metrics.fleet.num_iterations
        # Round-robin restarts at replica 0 on each run.
        assert second.assignments == first.assignments

    def test_run_does_not_mutate_caller_requests(self, llama3_deployment):
        """run() simulates fresh copies; the caller's objects stay QUEUED."""
        requests = tab06_trace(16)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        result = ClusterSimulator(topology, router="least-tokens").run(requests)
        assert all(r.state == RequestState.QUEUED for r in requests)
        assert all(r.first_token_time is None for r in requests)
        assert all(r.is_finished for r in result.requests)
        assert {r.request_id for r in result.requests} == {r.request_id for r in requests}

    def test_run_twice_on_same_list_is_deterministic(self, llama3_deployment):
        """Pre-fix, the second run() raised (or double-counted) because the
        first had driven the caller's requests to FINISHED."""
        requests = tab06_trace(16)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        first = simulator.run(requests)
        second = simulator.run(requests)
        assert second.metrics.fleet.makespan == first.metrics.fleet.makespan
        assert second.assignments == first.assignments
        for a, b in zip(first.requests, second.requests):
            assert a.finish_time == b.finish_time
            assert a.token_intervals == b.token_intervals

    def test_single_token_decode_finishes_in_prefill_pool(self, llama3_deployment):
        """decode_tokens == 1 completes at prefill time; no KV transfer."""
        requests = [Request(request_id=0, prefill_tokens=2048, decode_tokens=1)]
        topology = DisaggregatedTopology(llama3_deployment, num_prefill=1, num_decode=1)
        result = ClusterSimulator(topology).run(requests)
        assert result.requests[0].is_finished
        assert result.metrics.num_kv_transfers == 0


class TestIncrementalLoadAccounting:
    """Routing reads the replicas' incremental load counters; the checking
    routers (``load_checks``) hold them to reference scans at every route."""

    @pytest.mark.parametrize("topology_kind", ["colocated", "disaggregated"])
    @pytest.mark.parametrize("router", ["least-requests", "least-tokens", "prefill-aware"])
    def test_counter_routing_matches_scan_routing(
        self, llama3_deployment, topology_kind, router
    ):
        def build():
            if topology_kind == "colocated":
                return ColocatedTopology(
                    llama3_deployment,
                    num_replicas=3,
                    scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
                )
            return DisaggregatedTopology(
                llama3_deployment, num_prefill=2, num_decode=2, chunk_size=1024
            )

        requests = tab06_trace(24)
        plain = ClusterSimulator(build(), router=router).run(requests)
        simulator = load_checked_simulator(build(), router)
        checked = simulator.run(requests)
        # Every arrival and every KV handoff was routed on checked loads.
        assert simulator.router.checks == len(requests)
        assert simulator.decode_router.checks == checked.metrics.num_kv_transfers
        # The check only observes: the run is the unchecked one.
        assert plain.assignments == checked.assignments
        assert plain.decode_assignments == checked.decode_assignments
        assert plain.metrics.fleet.makespan == checked.metrics.fleet.makespan
        for a, b in zip(plain.requests, checked.requests):
            assert a.first_token_time == b.first_token_time
            assert a.finish_time == b.finish_time

    def test_counters_zero_after_drain(self, llama3_deployment):
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        simulator.run(tab06_trace(12))
        for replica in simulator.replicas:
            assert replica.load_num_requests == 0
            assert replica.load_total_tokens == 0
            assert replica.load_prefill_tokens == 0
            assert replica.scan_load() == (0, 0, 0)

    def test_drifted_counter_is_detected(self, llama3_deployment):
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = load_checked_simulator(topology, "least-tokens")
        simulator.replicas[0].load_total_tokens += 7  # inject drift
        with pytest.raises(InvariantViolationError, match="load-accounting"):
            simulator.run(tab06_trace(8))


class TestEventQueue:
    def test_ready_polls_per_step_stay_constant_under_backlog(
        self, llama3_deployment, monkeypatch
    ):
        """Each replica keeps one live ready entry, so a backlogged fleet asks
        a replica for its next ready time about once per executed step, not
        once per request waiting in the backlog."""
        polls = 0
        next_ready_time = ReplicaRuntime.next_ready_time

        def counted(replica):
            nonlocal polls
            polls += 1
            return next_ready_time(replica)

        monkeypatch.setattr(ReplicaRuntime, "next_ready_time", counted)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=4,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        # 40 QPS is far above what four replicas serve: the backlog grows.
        requests = build_scenario("shared-prefix-chat", num_requests=240, seed=1, qps=40.0)
        result = simulator.run(requests)
        assert all(r.is_finished for r in result.requests)
        steps = sum(replica.steps_executed for replica in simulator.replicas)
        assert polls / steps <= 2
