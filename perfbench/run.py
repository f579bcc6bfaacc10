"""Host-time benchmark of the POD-Attention reproduction.

    python3 perfbench/run.py --workload pod-kernels --seed 1 --seconds 60 --trace 0

Runs one workload (see ``workloads.py``) in this process, repeating it for
``--seconds`` seconds, and checks every repetition's simulated outputs.  It
prints each metric by name and unit, then, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end host-time metrics, measured
without layer tracing (see ``measure``).  With ``--trace 1`` repetitions
alternate between untraced and traced (``tracing.py``), and the metrics are
per-layer calls and self times from the traced ones plus the tracing overhead.

Simulated results (attention speedups, TTFT, TBT, makespan) are printed and
checked for determinism but are not metrics: the tier-1 golden tests pin them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pod-kernels", "fleet-arxiv", "prefix-pressure")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: Import time is measured in fresh interpreters, since this process can
#: import the package only once.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import repro, repro.cluster; print(time.perf_counter() - start)"
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_seconds() -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(probe.stdout.strip()))
    return statistics.median(times)


def mismatches(reference: tuple, signature: tuple) -> int:
    """Operations whose simulated outputs differ from the first repetition's."""
    differing = sum(a != b for a, b in zip(reference, signature))
    return differing + abs(len(reference) - len(signature))


def timed_rep(workload: Any, inputs: dict[str, Any]) -> tuple[Any, tuple[Any, Any]]:
    """One repetition, after collecting the garbage the previous one left."""
    gc.collect()
    return workload.run(inputs)


def keep_going(started: float, seconds: float, rep_s: list[float], done: int, least: int) -> bool:
    """Whether another repetition of typical length still fits in the budget."""
    if done < least:
        return True
    return perf_counter() - started + statistics.median(rep_s) <= seconds


# ------------------------------------------------------------- end to end


def measure(workload: Any, inputs: dict[str, Any], seconds: float) -> tuple[dict, list[Any]]:
    """End-to-end metrics from each piece's best time over the run's repetitions.

    A repetition is cut into pieces: its executor calls on ``pod-kernels``,
    the stretches from one replica step to the next on the serving workloads.
    Interference from other tenants of a shared host only ever adds time,
    and it comes and goes within seconds, so the least of several
    repetitions of the same piece (timeit's best-of-N, taken piece by piece)
    is the steadiest estimate of the program's own cost.
    """
    reps: list[Any] = []
    best_wall = best_cpu = None
    started = perf_counter()
    while keep_going(started, seconds, [r.wall_s for r in reps], len(reps), 2):
        rep, (wall, cpu) = timed_rep(workload, inputs)
        reps.append(rep)
        if best_wall is None:
            best_wall, best_cpu = wall, cpu
        elif wall.shape == best_wall.shape:  # else its outputs differ too, and are counted
            np.minimum(best_wall, wall, out=best_wall)
            np.minimum(best_cpu, cpu, out=best_cpu)
    wall_s = float(best_wall.sum())
    p50, p90 = np.percentile(best_wall, [50, 90]) * 1e3
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (float(best_cpu.sum()), "s"),
        "events_per_s": (reps[0].events / wall_s, "1/s"),
        "call_ms_p50": (float(p50), "ms"),
        "call_ms_p90": (float(p90), "ms"),
    }
    unit = "executor call" if workload.name == "pod-kernels" else "replica step"
    event = "ctas_per_s" if workload.name == "pod-kernels" else "steps_per_s"
    print(f"repetitions: {len(reps)}; pieces per repetition: {best_wall.size} (one per {unit})")
    print(f"events_per_s is {event}; call_ms_* are host ms per {unit}")
    return metrics, reps


# ------------------------------------------------------------------ traced


def traced_metrics(workload: Any, seed: int, inputs: dict, seconds: float) -> tuple[dict, list]:
    from tracing import Tracer

    untraced: list[Any] = []
    traced: list[tuple[Any, float, Any]] = []  # (tracer, traced window, rep)
    started = perf_counter()
    pair_s: list[float] = []
    while keep_going(started, seconds, pair_s, len(traced), 1):
        untraced.append(timed_rep(workload, inputs)[0])
        gc.collect()
        with Tracer() as tracer:
            build_start = perf_counter()
            fresh = workload.build(seed)
            build_s = perf_counter() - build_start
            rep, _ = workload.run(fresh)
        traced.append((tracer, build_s + rep.wall_s, rep))
        pair_s.append(untraced[-1].wall_s + build_s + rep.wall_s)

    per_rep = [layer_values(tracer, window, rep) for tracer, window, rep in traced]
    metrics = {
        name: (statistics.median_low(values[name][0] for values in per_rep), per_rep[0][name][1])
        for name in per_rep[0]
    }
    metrics["trace.overhead_ratio"] = (
        statistics.median(rep.wall_s for _, _, rep in traced)
        / statistics.median(rep.wall_s for rep in untraced),
        "ratio",
    )
    tracer, window, _ = traced[0]
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced")
    if tracer.absent:
        print(f"layers absent (wrapped function not found): {', '.join(tracer.absent)}")
    print("share of traced host time (self time / traced wall):")
    for name, stats in tracer.stats.items():
        print(f"  {name:28s} {stats.self_s / window:7.1%}  calls {stats.calls}")
    return metrics, untraced + [rep for _, _, rep in traced]


def layer_values(tracer: Any, window: float, rep: Any) -> dict[str, tuple[float, str]]:
    values: dict[str, tuple[float, str]] = {}
    for name, stats in tracer.stats.items():
        values[f"{name}.calls"] = (stats.calls, "count")
        values[f"{name}.self_s"] = (stats.self_s, "s")
    stats = tracer.stats
    steps = rep.layer_counts.get("steps", 0)
    engine = stats["gpu.engine"]
    ctas = engine.counts["ctas"]
    backend = stats["serving.attention_backend"]
    values.update(
        {
            "gpu.engine.ctas": (ctas, "count"),
            "gpu.engine.us_per_cta": (engine.self_s / ctas * 1e6 if ctas else 0.0, "us"),
            "serving.attention_backend.memo_hit_ratio": (
                backend.counts["memo_hits"] / backend.calls if backend.calls else 0.0,
                "ratio",
            ),
            "serving.scheduler.preemptions": (
                stats["serving.scheduler"].counts["preemptions"],
                "count",
            ),
            "serving.kv_cache.prefix_hit_ratio": (
                rep.layer_counts.get("prefix_hit_ratio", 0.0),
                "ratio",
            ),
            "serving.kv_cache.evictions": (rep.layer_counts.get("evictions", 0), "count"),
            "serving.kv_cache.calls_per_step": (
                stats["serving.kv_cache"].calls / steps if steps else 0.0,
                "1/step",
            ),
            "cluster.loop.ready_polls_per_step": (
                tracer.ready_polls / steps if steps else 0.0,
                "1/step",
            ),
            "trace.unattributed_s": (
                window - sum(layer.self_s for layer in stats.values()),
                "s",
            ),
            "trace.layers_absent": (len(tracer.absent), "count"),
        }
    )
    return values


# -------------------------------------------------------------------- main


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import_s = import_seconds()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    build_s = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        inputs = workload.build(args.seed)
        build_s.append(perf_counter() - start)
    setup_s = import_s + statistics.median(build_s)

    print(f"workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    if args.trace:
        metrics, reps = traced_metrics(workload, args.seed, inputs, args.seconds)
    else:
        metrics, reps = measure(workload, inputs, args.seconds)
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    failed += sum(mismatches(reps[0].signature, rep.signature) for rep in reps[1:])
    for line in workload.describe_simulated(reps[0].simulated):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"checks: {attempted} operations, {failed} failed")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
