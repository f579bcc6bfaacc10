"""Figure 11 (and the §5.1 energy result): speedup distribution over a hybrid-batch sweep.

The paper sweeps >1000 hybrid batches (context 4K–20K, chunk 512–2K); we
sample the same grid deterministically and report the distribution of
attention speedups of every mechanism over FA_Serial, plus the energy savings
of POD.
"""

from __future__ import annotations

from conftest import run_once

from repro.attention.executors import FAHFuse, FAStreams, FIBatched, FISerial, FASerial
from repro.attention.metrics import theoretical_minimum_time
from repro.bench.sweeps import figure11_sweep
from repro.core.pod_kernel import PODAttention
from repro.utils.stats import percentile

MAX_POINTS = 24
STRATEGIES = {
    "FA_Streams": FAStreams,
    "FI_Serial": FISerial,
    "FI_Batched": FIBatched,
    "FA_HFuse": FAHFuse,
    "POD": PODAttention,
}


def test_figure11(benchmark, llama3_deployment, sim_engine, report):
    table, finish = report(
        "Figure 11: attention speedup over FA_Serial across hybrid batches",
        "fig11_speedup_distribution.csv",
    )
    summary_rows = []

    def run() -> None:
        points = figure11_sweep(max_points=MAX_POINTS, seed=0)
        speedups = {name: [] for name in STRATEGIES}
        pod_energy_savings = []
        pod_near_optimal = 0
        for point in points:
            batch = point.to_batch()
            serial = FASerial().run(llama3_deployment, batch, sim_engine)
            bound = theoretical_minimum_time(llama3_deployment, batch)
            for name, factory in STRATEGIES.items():
                result = factory().run(llama3_deployment, batch, sim_engine)
                speedups[name].append(result.speedup_over(serial) * 100)
                if name == "POD":
                    pod_energy_savings.append(
                        (1.0 - result.energy_joules / serial.energy_joules) * 100
                    )
                    if result.total_time <= bound * 1.1:
                        pod_near_optimal += 1
        for name, values in speedups.items():
            summary_rows.append(
                {
                    "mechanism": name,
                    "min_pct": round(min(values), 1),
                    "p25_pct": round(percentile(values, 25), 1),
                    "median_pct": round(percentile(values, 50), 1),
                    "p75_pct": round(percentile(values, 75), 1),
                    "max_pct": round(max(values), 1),
                    "mean_pct": round(sum(values) / len(values), 1),
                }
            )
        summary_rows.append(
            {
                "mechanism": "POD energy savings",
                "min_pct": round(min(pod_energy_savings), 1),
                "median_pct": round(percentile(pod_energy_savings, 50), 1),
                "max_pct": round(max(pod_energy_savings), 1),
                "mean_pct": round(sum(pod_energy_savings) / len(pod_energy_savings), 1),
            }
        )
        summary_rows.append(
            {
                "mechanism": "POD within 10% of theoretical peak",
                "mean_pct": round(100 * pod_near_optimal / len(points), 1),
            }
        )
        table.add_rows(summary_rows)

    run_once(benchmark, run)
    result = finish()
    rows = {row["mechanism"]: row for row in result.rows}
    # Paper shape: POD has the largest peak speedup, a clearly positive mean
    # (paper: up to 59%, mean 28%), and saves energy in proportion to runtime.
    # Virtual-CTA grouping can cost a little on tiny decode batches (min < 0),
    # and the scaled-down sweep over-represents small batches where streams
    # benefit from wave-quantization relief, so the comparison uses the
    # median/max of the distributions rather than single points.
    assert rows["POD"]["min_pct"] >= -15.0
    assert rows["POD"]["max_pct"] >= max(
        rows[name]["max_pct"] for name in STRATEGIES if name != "POD"
    )
    assert rows["POD"]["median_pct"] >= rows["FI_Serial"]["median_pct"]
    assert rows["POD"]["mean_pct"] >= 15.0
    assert rows["POD energy savings"]["mean_pct"] > 5.0
