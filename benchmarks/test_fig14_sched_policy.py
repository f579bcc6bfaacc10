"""Figure 14: 50:50 vs proportional CTA scheduling policy.

POD-Attention latency at 8K context with varying decode batch sizes for
Yi-6B and Llama-3-8B.  Proportional allocation spreads the rarer operation and
wins as the decode batch grows.
"""

from __future__ import annotations

from conftest import run_once

from repro.attention.workload import HybridBatch
from repro.core.pod_kernel import PODAttention
from repro.core.scheduling_policy import FiftyFiftyPolicy, ProportionalPolicy
from repro.gpu.engine import ExecutionEngine

BATCH_SIZES = (32, 64, 96, 128, 192)
CONTEXT = 8192
CHUNK = 2048


def test_figure14(benchmark, yi_deployment, llama3_deployment, report):
    table, finish = report(
        "Figure 14: scheduling policy (50:50 vs proportional), context 8K", "fig14_sched_policy.csv"
    )
    deployments = {"Yi-6B": yi_deployment, "Llama-3-8B": llama3_deployment}

    def run() -> None:
        for model_name, deployment in deployments.items():
            engine = ExecutionEngine(deployment.gpu)
            for batch_size in BATCH_SIZES:
                batch = HybridBatch.uniform(
                    chunk_tokens=CHUNK,
                    prefill_context=CONTEXT,
                    decode_batch_size=batch_size,
                    decode_context=CONTEXT,
                )
                fifty = (
                    PODAttention(policy=FiftyFiftyPolicy())
                    .run(deployment, batch, engine)
                    .total_time
                )
                proportional = (
                    PODAttention(policy=ProportionalPolicy())
                    .run(deployment, batch, engine)
                    .total_time
                )
                table.add_row(
                    {
                        "model": model_name,
                        "decode_bs": batch_size,
                        "50:50_ms": round(fifty * 1e3, 3),
                        "proportional_ms": round(proportional * 1e3, 3),
                        "proportional_gain_pct": round((fifty / proportional - 1) * 100, 1),
                    }
                )

    run_once(benchmark, run)
    result = finish()
    # Latency grows with the decode batch size, and the two policies stay within
    # a modest band of one another (the paper reports up to ~14% differences).
    for model in ("Yi-6B", "Llama-3-8B"):
        rows = [row for row in result.rows if row["model"] == model]
        assert rows[-1]["proportional_ms"] > rows[0]["proportional_ms"]
        assert all(abs(row["proportional_gain_pct"]) < 40 for row in rows)
