"""The benchmark's workloads: inputs from a seed, one repetition, output checks.

Each workload drives the program only through public entry points
(``repro`` exports, ``build_scenario``, ``ColocatedTopology``,
``ClusterSimulator``).  A repetition is one pass of the workload's calls into
the program; the runner repeats it, times it from outside, and compares every
repetition's simulated outputs with the first one's.

``pod-kernels`` stresses the GPU event engine and never enters the serving
stack.  ``fleet-arxiv`` stresses the serving step (engine, attention
estimate, cost model) and never calls the GPU engine.  ``prefix-pressure``
runs the same serving layers, but its KV cache is too small for the offered
load, so eviction, preemption and the backlog path of the cluster loop
dominate.
"""

from __future__ import annotations

import random
import statistics
from array import array
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter, process_time
from types import FunctionType
from typing import Any

import numpy as np

import repro
from repro import (
    ClusterSimulator,
    DecodeRequest,
    HybridBatch,
    PrefillChunk,
    build_scenario,
    paper_deployment,
    theoretical_minimum_time,
)
from repro.cluster import ColocatedTopology
from repro.serving import RequestState
from repro.serving.attention_backend import PODBackend
from repro.serving.kv_cache import KVCacheConfig
from repro.serving.replica import ReplicaRuntime
from repro.serving.scheduler_sarathi import SarathiScheduler

MODEL = "llama-3-8b"

#: POD-Attention's attention speedup over FA_Serial reported by the paper
#: (mean and maximum over hybrid batches), printed beside the model's.
PAPER_POD_SPEEDUP = {"mean": 0.28, "max": 0.59}


@dataclass
class Rep:
    """Outcome of one repetition."""

    wall_s: float
    cpu_s: float
    events: int  # CTAs dispatched, or replica steps executed
    signature: tuple  # simulated outputs per operation; equal across repetitions
    attempted: int
    failed: int
    simulated: dict[str, float] = field(default_factory=dict)
    layer_counts: dict[str, float] = field(default_factory=dict)


class PieceClock:
    """Host wall and CPU timestamps at the boundaries of a repetition's pieces.

    A piece is one call into the program (an executor ``run``) or, in a
    cluster run, the stretch from one replica step to the next.  Repetitions
    of the same inputs cut into the same pieces, so the runner can take each
    piece's best time over the repetitions.
    """

    def __init__(self) -> None:
        self.wall = array("d")
        self.cpu = array("d")

    def mark(self) -> None:
        self.wall.append(perf_counter())
        self.cpu.append(process_time())

    def pieces(self) -> tuple[np.ndarray, np.ndarray]:
        return np.diff(self.wall), np.diff(self.cpu)


@contextmanager
def marking_steps(clock: PieceClock) -> Iterator[None]:
    """Mark a piece boundary at the start of every ``ReplicaRuntime.step``.

    The probe costs one ``perf_counter`` and one ``process_time`` call per
    step (about 0.4 us against steps of 40 us or more).  If ``step`` no
    longer exists, the run stays one piece.
    """
    original = vars(ReplicaRuntime).get("step")
    if not isinstance(original, FunctionType):
        yield
        return
    mark = clock.mark

    def step(replica: ReplicaRuntime) -> Any:
        mark()
        return original(replica)

    ReplicaRuntime.step = step  # type: ignore[method-assign]
    try:
        yield
    finally:
        ReplicaRuntime.step = original  # type: ignore[method-assign]


# ---------------------------------------------------------------- pod-kernels


#: Batch templates spanning the shapes the paper evaluates: prefill contexts
#: 4K-20K, chunks 512-2K, decode batches of 16-250 requests.  Each is
#: (prefill context, chunk, decode batch size, mean decode context); 0 leaves
#: out that phase, which makes POD-Attention take its fallback path.
POD_TEMPLATES = (
    (4096, 512, 16, 4096),
    (8192, 1024, 64, 8192),
    (12288, 2048, 128, 12288),
    (16384, 512, 250, 16384),
    (20480, 2048, 200, 8192),
    (12288, 1024, 100, 20480),
    (16384, 2048, 0, 0),
    (0, 0, 160, 12288),
)


def pod_batches(seed: int) -> list[HybridBatch]:
    """One batch per template, jittered by the seed.

    Sizes move by up to 5% and every decode context is drawn within 25% of its
    batch's mean, so decode contexts vary within a batch.  The templates fix
    how much work a pass holds, so seeds change the shapes, not the load.
    """
    rng = random.Random(seed)

    def jitter(value: int, low: int, high: int, by: float = 0.05) -> int:
        return min(high, max(low, round(value * rng.uniform(1 - by, 1 + by))))

    batches = []
    for context, chunk, decodes, decode_context in POD_TEMPLATES:
        prefills = ()
        if context:
            chunk = jitter(chunk, 512, 2048)
            prefills = (PrefillChunk(chunk, jitter(context, 4096, 20480) - chunk),)
        requests = tuple(
            DecodeRequest(jitter(decode_context, 4096, 20480, by=0.25))
            for _ in range(jitter(decodes, 16, 250) if decodes else 0)
        )
        batches.append(HybridBatch(prefills=prefills, decodes=requests))
    return batches


class PodKernels:
    """All six attention executors on seeded batches, simulated on the GPU engine."""

    name = "pod-kernels"
    executors = (
        repro.FASerial,
        repro.FAStreams,
        repro.FISerial,
        repro.FIBatched,
        repro.FAHFuse,
        repro.PODAttention,
    )

    def build(self, seed: int) -> dict[str, Any]:
        deployment = paper_deployment(MODEL)
        batches = pod_batches(seed)
        return {
            "deployment": deployment,
            "batches": batches,
            "bounds": [theoretical_minimum_time(deployment, batch) for batch in batches],
        }

    def run(self, inputs: dict[str, Any]) -> tuple[Rep, tuple[np.ndarray, np.ndarray]]:
        deployment = inputs["deployment"]
        results = []
        clock = PieceClock()
        clock.mark()
        for batch in inputs["batches"]:
            for executor in self.executors:
                results.append(executor().run(deployment, batch))
                clock.mark()
        wall, cpu = clock.pieces()

        per_batch = len(self.executors)
        failed = 0
        speedups = []
        over_bound = []
        for index, result in enumerate(results):
            batch = index // per_batch
            over_bound.append(result.total_time / inputs["bounds"][batch])
            failed += not (
                0.0 <= result.compute_utilization <= 1.0
                and 0.0 <= result.memory_utilization <= 1.0
                and over_bound[-1] >= 1.0
            )
            executor = self.executors[index % per_batch]
            if executor is repro.PODAttention and inputs["batches"][batch].is_hybrid:
                # executors[0] is FA_Serial, the paper's baseline.
                speedups.append(result.speedup_over(results[batch * per_batch]))
        signature = tuple(
            (r.strategy, r.total_time, r.compute_utilization, r.memory_utilization, r.energy_joules)
            for r in results
        )
        simulated = {
            "pod_speedup_mean": statistics.fmean(speedups),
            "pod_speedup_max": max(speedups),
            "min_time_over_bound": min(over_bound),
        }
        rep = Rep(
            wall_s=float(wall.sum()),
            cpu_s=float(cpu.sum()),
            events=sum(r.execution.total_ctas for r in results),
            signature=signature,
            attempted=len(results),
            failed=failed,
            simulated=simulated,
        )
        return rep, (wall, cpu)

    def describe_simulated(self, simulated: dict[str, float]) -> list[str]:
        lines = []
        for key in ("mean", "max"):
            model = simulated[f"pod_speedup_{key}"]
            paper = PAPER_POD_SPEEDUP[key]
            lines.append(
                f"simulated POD speedup over FA_Serial ({key}, hybrid batches): "
                f"{model:.1%} (paper {paper:.0%}, model error {model - paper:+.1%})"
            )
        lines.append(
            "simulated smallest attention time / theoretical minimum: "
            f"{simulated['min_time_over_bound']:.4f}"
        )
        return lines


# ------------------------------------------------------------------- serving


class _ServingWorkload:
    """One colocated cluster serving a scenario trace; a repetition is one run()."""

    name = ""
    scenario = ""
    num_requests = 0
    qps = 0.0
    replicas = 0
    router = ""

    def topology(self, deployment: Any) -> ColocatedTopology:
        raise NotImplementedError

    def build(self, seed: int) -> dict[str, Any]:
        deployment = paper_deployment(MODEL)
        requests = build_scenario(
            self.scenario, num_requests=self.num_requests, seed=seed, qps=self.qps
        )
        simulator = ClusterSimulator(self.topology(deployment), router=self.router)
        return {"requests": requests, "simulator": simulator}

    def run(self, inputs: dict[str, Any]) -> tuple[Rep, tuple[np.ndarray, np.ndarray]]:
        simulator = inputs["simulator"]
        clock = PieceClock()
        with marking_steps(clock):
            clock.mark()
            result = simulator.run(inputs["requests"])
            clock.mark()
        wall, cpu = clock.pieces()

        leaked = {r.replica_id for r in simulator.replicas if r.kv_cache.used_blocks != 0}
        failed = 0
        signature = []
        for request in sorted(result.requests, key=lambda r: r.request_id):
            ok = (
                request.state is RequestState.FINISHED
                and request.decode_done_tokens == request.decode_tokens
                and result.assignments.get(request.request_id) not in leaked
            )
            failed += not ok
            signature.append(
                (
                    request.request_id,
                    request.state.value,
                    request.first_token_time,
                    request.finish_time,
                    request.decode_done_tokens,
                    request.preemption_count,
                )
            )
        missing = len(inputs["requests"]) - len(result.requests)
        fleet = result.metrics.fleet
        stats = result.kv_stats
        steps = sum(replica.steps_executed for replica in simulator.replicas)
        rep = Rep(
            wall_s=float(wall.sum()),
            cpu_s=float(cpu.sum()),
            events=steps,
            signature=tuple(signature),
            attempted=len(inputs["requests"]),
            failed=failed + max(missing, 0),
            simulated={
                "ttft_p50_s": fleet.ttft_p50,
                "ttft_p99_s": fleet.ttft_p99,
                "tbt_p99_s": fleet.tbt_p99,
                "makespan_s": fleet.makespan,
            },
            layer_counts={
                "steps": steps,
                "evictions": stats.evictions,
                "prefix_hit_ratio": stats.hit_rate,
            },
        )
        return rep, (wall, cpu)

    def describe_simulated(self, simulated: dict[str, float]) -> list[str]:
        return [f"simulated {key} = {value:.6g}" for key, value in simulated.items()]


class FleetArxiv(_ServingWorkload):
    """The fig18 32-replica point: arXiv at 0.85 QPS per replica, least-tokens."""

    name = "fleet-arxiv"
    scenario = "arxiv-summarization"
    replicas = 32
    num_requests = 16 * 32
    qps = 0.85 * 32
    router = "least-tokens"

    def topology(self, deployment: Any) -> ColocatedTopology:
        return ColocatedTopology(
            deployment,
            num_replicas=self.replicas,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_factory=lambda: PODBackend(deployment),
        )


class PrefixPressure(_ServingWorkload):
    """Four replicas with small prefix-caching KV caches, offered load above capacity.

    With 8192-token caches the number of replica steps swung by 18%
    (interquartile range over ten seeds) as preemption cascades came and
    went; 16384 tokens and 1200 requests keep eviction, preemption and a
    growing backlog while the swing stays near 6%.
    """

    name = "prefix-pressure"
    scenario = "shared-prefix-chat"
    replicas = 4
    num_requests = 1200
    qps = 40.0
    router = "prefix-affinity"

    def topology(self, deployment: Any) -> ColocatedTopology:
        return ColocatedTopology(
            deployment,
            num_replicas=self.replicas,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024, preemption=True),
            backend_factory=lambda: PODBackend(deployment),
            kv_config=KVCacheConfig(
                capacity_tokens=16384, block_size=16, enable_prefix_caching=True
            ),
        )


WORKLOADS = {w.name: w for w in (PodKernels(), FleetArxiv(), PrefixPressure())}
