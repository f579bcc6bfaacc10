"""Quickstart: compute one hybrid batch's attention with every strategy.

Builds the paper's C0 hybrid batch (Table 1) for Llama-3-8B on two simulated
A100s, runs the FlashAttention/FlashInfer baselines and POD-Attention on the
simulated GPU, and prints runtime, utilization and speedup — a miniature
version of Figure 1.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.attention import FAHFuse, FASerial, FAStreams, FIBatched, FISerial, table1_configs
from repro.attention.metrics import theoretical_minimum_time
from repro.core import PODAttention
from repro.gpu import ExecutionEngine
from repro.models import paper_deployment


def main() -> None:
    deployment = paper_deployment("llama-3-8b")
    engine = ExecutionEngine(deployment.gpu)
    batch = table1_configs()["C0"]

    print(
        f"Deployment : {deployment.model.name} on "
        f"{deployment.tensor_parallel}x {deployment.gpu.name}"
    )
    print(f"Batch      : chunk {batch.num_prefill_tokens} tokens "
          f"+ {batch.decode_batch_size} decodes (12K context each)")
    print()

    executors = [FASerial(), FAStreams(), FAHFuse(), FISerial(), FIBatched(), PODAttention()]
    baseline = None
    print(f"{'strategy':<12} {'time (ms)':>10} {'compute':>9} {'memory':>8} {'speedup':>9}")
    for executor in executors:
        result = executor.run(deployment, batch, engine)
        if baseline is None:
            baseline = result
        speedup = result.speedup_over(baseline) * 100
        print(
            f"{result.strategy:<12} {result.total_time_ms:>10.3f} "
            f"{result.compute_utilization:>8.0%} {result.memory_utilization:>7.0%} "
            f"{speedup:>+8.1f}%"
        )

    bound = theoretical_minimum_time(deployment, batch)
    print()
    print(f"Perfect-overlap lower bound: {bound * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
