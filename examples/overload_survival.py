"""Overload survival example: the elastic control plane under a load surge.

Serves the ``surge-multi-tenant`` scenario — tiered chat/RAG/batch tenants
whose arrival rate triples mid-trace — on a single-entry Llama-3-8B fleet
under four control policies: no control, queue-depth autoscaling, SLO-tiered
load shedding, and both.  Prints per-tier offered-traffic SLO attainment
next to the replica-seconds each policy paid — a miniature of the Figure 20
overload-survival benchmark.

Run with:  python examples/overload_survival.py [surge_factor]
"""

from __future__ import annotations

import sys

from repro.bench.experiments import FIG20_POLICIES, fig20_row
from repro.models import paper_deployment


def main(surge_factor: float = 3.0) -> None:
    deployment = paper_deployment("llama-3-8b")
    print(
        f"Surge-multi-tenant trace ({surge_factor:g}x surge) on "
        f"{deployment.model.name}: static fleet vs autoscaling vs "
        "SLO-tiered shedding"
    )
    print()
    header = (
        f"{'policy':<16} {'finished':>8} {'shed':>5} {'peak':>5} "
        f"{'replica-s':>10} {'interactive':>12} {'standard':>9} {'batch':>6}"
    )
    print(header)
    print("-" * len(header))
    for policy in FIG20_POLICIES:
        row = fig20_row(deployment, surge_factor, policy)
        print(
            f"{policy:<16} {row['finished']:>8d} {row['rejected']:>5d} "
            f"{row['peak_replicas']:>5d} {row['replica_seconds']:>10.1f} "
            f"{row['slo_interactive']:>12.0%} {row['slo_standard']:>9.0%} "
            f"{row['slo_batch']:>6.0%}"
        )
    print()
    print(
        "Attainment is goodput over *offered* traffic, so shed requests count "
        "as misses: shedding protects the interactive tier by sacrificing "
        "batch, autoscaling protects every tier by paying replica-seconds."
    )


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 3.0)
