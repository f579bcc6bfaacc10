"""Golden-regression harness: recompute cheap benchmark rows in-process and
compare against the committed ``results/*.csv`` artifacts.

The benchmark suite regenerates the paper's figures deterministically (seeded
RNGs, analytic cost models), so the committed CSVs are reproducible to the
digit.  These tests recompute the cheap tables — Figure 6 (attention runtime
per chunk), Figure 15 (P:D ratio throughput sweep) and Table 6 (online
latency, arXiv trace) — through the *library* APIs and pin them to the
committed artifacts within a tight tolerance.  A perf refactor that silently
changes reproduced numbers (or a workload refactor that perturbs a seeded
trace, e.g. the ``serving.trace`` → ``repro.workloads`` delegation) fails
here instead of shipping.
"""

from __future__ import annotations

import csv
from pathlib import Path

import pytest

from repro.attention.executors import FAHFuse, FASerial, FAStreams
from repro.attention.workload import hybrid_chunk_sweep
from repro.bench.scenario_rows import (
    FIG17_CHUNK_SIZE,
    FIG17_SEED,
    scenario_cluster_row,
    scenario_single_replica_row,
)
from repro.bench.sweeps import scenario_cluster_grid
from repro.cluster.sweep import ClusterSweepPoint, run_sweep_point
from repro.core.pod_kernel import PODAttention
from repro.gpu.engine import ExecutionEngine
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.serving.simulator import ServingSimulator
from repro.serving.trace import arxiv_workload, pd_ratio_workload, with_poisson_arrivals

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"

# Tight enough that any behavioural change to the models trips the test;
# loose enough to absorb last-ulp float differences across platforms after
# the benchmarks' explicit rounding.
TOLERANCE = dict(rel=2e-3, abs=2e-3)


def load_golden(filename: str) -> list[dict[str, object]]:
    path = RESULTS_DIR / filename
    assert path.exists(), f"committed golden artifact missing: {path}"
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows, f"golden artifact {filename} is empty"
    parsed = []
    for row in rows:
        out: dict[str, object] = {}
        for key, value in row.items():
            try:
                out[key] = float(value)
            except ValueError:
                out[key] = value
        parsed.append(out)
    return parsed


def assert_rows_match(golden: list[dict], recomputed: list[dict], context: str) -> None:
    assert len(golden) == len(recomputed), (
        f"{context}: row count changed ({len(golden)} committed, {len(recomputed)} recomputed)"
    )
    for index, (expected, actual) in enumerate(zip(golden, recomputed)):
        assert set(expected) == set(actual), f"{context} row {index}: columns changed"
        for key, value in expected.items():
            got = actual[key]
            if isinstance(value, float):
                assert got == pytest.approx(value, **TOLERANCE), (
                    f"{context} row {index} column {key!r}: committed {value}, recomputed {got}"
                )
            else:
                assert str(got) == value, (
                    f"{context} row {index} column {key!r}: committed {value!r}, recomputed {got!r}"
                )


class TestFigure6Golden:
    """Per-layer attention runtime per chunk (Yi-6B, chunk 512, ctx 16K)."""

    def test_matches_committed_csv(self, yi_deployment):
        engine = ExecutionEngine(yi_deployment.gpu)
        recomputed = []
        for decode_batch_size, label in ((54, "w/o quantization"), (55, "w/ quantization")):
            batches = hybrid_chunk_sweep(
                prompt_tokens=16384,
                chunk_size=512,
                decode_batch_size=decode_batch_size,
                decode_context=16384,
            )
            for chunk_id in range(0, len(batches), 4):
                batch = batches[chunk_id]
                serial = FASerial().run(yi_deployment, batch, engine)
                streams = FAStreams().run(yi_deployment, batch, engine)
                hfuse = FAHFuse().run(yi_deployment, batch, engine)
                pod = PODAttention().run(yi_deployment, batch, engine)
                recomputed.append(
                    {
                        "decode_bs": float(decode_batch_size),
                        "quantization": label,
                        "chunk_id": float(chunk_id),
                        "FA_Serial_ms": round(serial.total_time_ms, 3),
                        "FA_Streams_ms": round(streams.total_time_ms, 3),
                        "FA_HFuse_ms": round(hfuse.total_time_ms, 3),
                        "POD_ms": round(pod.total_time_ms, 3),
                        "POD_speedup_pct": round(pod.speedup_over(serial) * 100, 1),
                    }
                )
        assert_rows_match(load_golden("fig06_chunk_sweep.csv"), recomputed, "fig06")


class TestFigure15Golden:
    """Sarathi vs Sarathi+POD offline throughput across P:D token ratios."""

    @staticmethod
    def _throughput(deployment, backend, pd_ratio):
        requests = pd_ratio_workload(32, total_tokens=16_500, pd_ratio=pd_ratio)
        simulator = ServingSimulator(
            deployment, scheduler=SarathiScheduler(chunk_size=1024), backend=backend
        )
        result = simulator.run(requests)
        return result.metrics.requests_per_minute, result.metrics.hybrid_iteration_fraction

    def test_matches_committed_csv(self, llama3_deployment):
        recomputed = []
        for pd_ratio in (8, 12, 16, 20, 24):
            sarathi, hybrid_fraction = self._throughput(
                llama3_deployment, FASerialBackend(llama3_deployment), pd_ratio
            )
            pod, _ = self._throughput(llama3_deployment, PODBackend(llama3_deployment), pd_ratio)
            recomputed.append(
                {
                    "pd_ratio": float(pd_ratio),
                    "Sarathi_req_per_min": round(sarathi, 2),
                    "Sarathi+POD_req_per_min": round(pod, 2),
                    "gain_pct": round((pod / sarathi - 1) * 100, 1),
                    "hybrid_iteration_pct": round(hybrid_fraction * 100, 1),
                }
            )
        assert_rows_match(load_golden("fig15_pd_ratio.csv"), recomputed, "fig15")


class TestFigure16Golden:
    """Cluster-scaling rows (router x topology x fleet size, arXiv trace).

    Recomputing the full 12-point grid is benchmark-budget work; the golden
    check pins a representative subset — both topologies, three routers,
    both fleet sizes — through the same ``run_sweep_point`` path the
    benchmark uses, matched against the committed rows by grid key.
    """

    SUBSET = (
        ("colocated", "round-robin", 2),
        ("disaggregated", "least-tokens", 2),
        ("colocated", "prefill-aware", 4),
    )

    def test_matches_committed_csv(self):
        golden = load_golden("fig16_cluster_scaling.csv")
        by_key = {
            (row["topology"], row["router"], int(row["replicas"])): row for row in golden
        }
        for topology, router, replicas in self.SUBSET:
            recomputed = run_sweep_point(
                ClusterSweepPoint(
                    num_replicas=replicas,
                    router=router,
                    topology=topology,
                    workload="arxiv",
                    qps_per_replica=0.85,
                    requests_per_replica=24,
                    chunk_size=1024,
                    seed=17,
                )
            )
            key = (topology, router, replicas)
            assert key in by_key, f"fig16: committed CSV lost grid point {key}"
            assert_rows_match([by_key[key]], [recomputed], f"fig16 {key}")


class TestFigure17Golden:
    """Scenario-sweep rows (workloads x systems, single replica + cluster).

    Pins three single-replica rows spanning the system matrix and shape
    space, plus one 4-replica cluster row, recomputed through the *same* row
    builders the benchmark uses (``repro.bench.scenario_rows``), so the
    schema and parameters cannot drift between the two.
    """

    SINGLE_SUBSET = (
        ("arxiv-summarization", "vLLM"),
        ("rag-burst", "Sarathi+POD"),
        ("short-chat-diurnal", "Sarathi"),
    )
    CLUSTER_SCENARIO = "code-completion-surge"

    def test_single_replica_rows_match(self, llama3_deployment):
        golden = load_golden("fig17_scenario_sweep.csv")
        by_key = {(row["scenario"], row["mode"], row["system"]): row for row in golden}
        for scenario, system in self.SINGLE_SUBSET:
            key = (scenario, "single", system)
            assert key in by_key, f"fig17: committed CSV lost row {key}"
            recomputed = scenario_single_replica_row(llama3_deployment, scenario, system)
            # Single-replica rows leave the CSV's cluster-only column blank.
            recomputed["util_mean"] = ""
            assert_rows_match([by_key[key]], [recomputed], f"fig17 {key}")

    def test_cluster_row_matches(self):
        golden = load_golden("fig17_scenario_sweep.csv")
        by_key = {(row["scenario"], row["mode"], row["system"]): row for row in golden}
        key = (self.CLUSTER_SCENARIO, "cluster-x4", "Sarathi+POD")
        assert key in by_key, f"fig17: committed CSV lost row {key}"
        point = scenario_cluster_grid(
            (self.CLUSTER_SCENARIO,),
            num_replicas=4,
            requests_per_replica=12,
            chunk_size=FIG17_CHUNK_SIZE,
            seed=FIG17_SEED,
        )[0]
        recomputed = scenario_cluster_row(run_sweep_point(point), num_replicas=4)
        assert_rows_match([by_key[key]], [recomputed], f"fig17 {key}")


class TestTable6Golden:
    """Online latency on the arXiv trace — exercises the full compatibility
    path: ``arxiv_workload`` + ``with_poisson_arrivals`` wrappers over the
    new ``repro.workloads`` generators must reproduce the committed rows."""

    def test_matches_committed_csv(self, llama3_deployment):
        recomputed = []
        for qps in (0.85, 0.95):
            systems = {
                "vLLM": (VLLMScheduler(), FASerialBackend(llama3_deployment)),
                "Sarathi": (
                    SarathiScheduler(chunk_size=1024),
                    FASerialBackend(llama3_deployment),
                ),
                "Sarathi+POD": (
                    SarathiScheduler(chunk_size=1024),
                    PODBackend(llama3_deployment),
                ),
            }
            for system, (scheduler, backend) in systems.items():
                requests = with_poisson_arrivals(
                    arxiv_workload(160, seed=17), qps=qps, seed=18
                )
                simulator = ServingSimulator(
                    llama3_deployment, scheduler=scheduler, backend=backend
                )
                metrics = simulator.run(requests).metrics
                recomputed.append(
                    {
                        "workload": "arxiv",
                        "qps": qps,
                        "system": system,
                        "ttft_p50_s": round(metrics.ttft_p50, 2),
                        "ttft_p99_s": round(metrics.ttft_p99, 2),
                        "tbt_p50_s": round(metrics.tbt_p50, 3),
                        "tbt_p99_s": round(metrics.tbt_p99, 3),
                        "latency_p50_s": round(metrics.latency_p50, 2),
                        "latency_p99_s": round(metrics.latency_p99, 2),
                        "stalls_200ms_pct": round(metrics.stall_fraction_200ms * 100, 1),
                        "stalls_500ms_pct": round(metrics.stall_fraction_500ms * 100, 1),
                    }
                )
        assert_rows_match(load_golden("tab06_online_arxiv.csv"), recomputed, "tab06")
