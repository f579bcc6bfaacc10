"""Sweep generators for the experiment registry (notably the Figure 11 batch
sweep and the cluster-scaling grids)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.attention.workload import HybridBatch
from repro.cluster.sweep import ClusterSweepPoint


@dataclass(frozen=True)
class SweepPoint:
    """One hybrid-batch configuration in a sweep."""

    context_length: int
    chunk_size: int
    decode_batch_size: int

    def to_batch(self) -> HybridBatch:
        return HybridBatch.uniform(
            chunk_tokens=self.chunk_size,
            prefill_context=self.context_length,
            decode_batch_size=self.decode_batch_size,
            decode_context=self.context_length,
        )


def figure11_sweep(
    context_lengths: tuple[int, ...] = (4096, 8192, 12288, 16384, 20480),
    chunk_sizes: tuple[int, ...] = (512, 1024, 2048),
    decode_batch_sizes: tuple[int, ...] = (16, 32, 64, 128, 192, 250),
    max_points: int | None = None,
    seed: int = 0,
) -> list[SweepPoint]:
    """The hybrid-batch sweep of §5.1 (context 4K–20K, chunk 512–2K, varying batch).

    The paper sweeps over a thousand batches; ``max_points`` lets benchmarks
    subsample the grid (deterministically) to keep runtimes reasonable.
    """
    points = [
        SweepPoint(context_length=ctx, chunk_size=min(chunk, ctx), decode_batch_size=bs)
        for ctx, chunk, bs in product(context_lengths, chunk_sizes, decode_batch_sizes)
    ]
    # Deduplicate (chunk may have been clamped to the context length).
    unique: dict[tuple[int, int, int], SweepPoint] = {
        (p.context_length, p.chunk_size, p.decode_batch_size): p for p in points
    }
    points = list(unique.values())
    if max_points is not None and len(points) > max_points:
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(points), size=max_points, replace=False)
        points = [points[i] for i in sorted(indices)]
    return points


def cluster_scaling_grid(
    cluster_sizes: tuple[int, ...] = (2, 4),
    routers: tuple[str, ...] = ("round-robin", "least-tokens", "prefill-aware"),
    topologies: tuple[str, ...] = ("colocated", "disaggregated"),
    **common,
) -> list[ClusterSweepPoint]:
    """Router × topology × cluster-size grid for the cluster-scaling study.

    Extra keyword arguments (``workload``, ``qps_per_replica``,
    ``requests_per_replica``, ``chunk_size``, ``seed``, …) are forwarded to
    every :class:`~repro.cluster.sweep.ClusterSweepPoint`, keeping the grid
    iso-load across sizes by construction.
    """
    return [
        ClusterSweepPoint(num_replicas=size, router=router, topology=topology, **common)
        for topology, router, size in product(topologies, routers, cluster_sizes)
    ]


def figure13_grid(
    context_lengths: tuple[int, ...] = (4096, 8192, 16384),
    decode_batch_sizes: tuple[int, ...] = (32, 64, 128, 192),
    chunk_size: int = 1024,
) -> list[SweepPoint]:
    """(context length × batch size) grid for the CTAs-per-SM sensitivity study."""
    return [
        SweepPoint(context_length=ctx, chunk_size=min(chunk_size, ctx), decode_batch_size=bs)
        for ctx, bs in product(context_lengths, decode_batch_sizes)
    ]
