"""Differential tests: ``ExecutionEngine`` against the frozen reference engine.

``tests/reference_engine.py`` keeps the engine as it was before per-CTA state
was cut down to the resident CTAs and placement became one vectorised pick.
Both engines must agree on every numeric field of the result to ``REL``
relative: the makespan, each kernel's start and end, the FLOP and byte totals
(overall and per tag), the utilizations, the energy, the co-location fraction
and the average resident CTA count.  Summation order in the FLOP and byte
totals is the only difference the rewrite may introduce.

Inputs: the Table 1 configurations under all six attention executors, the
Figure 13 grid under both POD-Attention CTA configurations, Figure 14's two
scheduling policies, and random kernel mixes and stream layouts.
"""

from __future__ import annotations

from typing import Callable

import pytest
from hypothesis import given, strategies as st

from reference_engine import ReferenceEngine
from repro.attention.executors import FAHFuse, FASerial, FAStreams, FIBatched, FISerial
from repro.attention.workload import HybridBatch, table1_configs
from repro.bench.sweeps import figure13_grid
from repro.core.pod_kernel import PODAttention
from repro.core.scheduling_policy import FiftyFiftyPolicy, ProportionalPolicy
from repro.core.tile_config import pod_config_2_ctas_per_sm, pod_config_4_ctas_per_sm
from repro.gpu.config import GPUSpec, a100_sxm_80gb
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG, CTAWork
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.result import ExecutionResult
from repro.utils.units import KB

REL = 1e-12

EXECUTORS = (FASerial, FAStreams, FISerial, FIBatched, FAHFuse, PODAttention)


def _fields(result: ExecutionResult) -> dict[str, float]:
    fields = {
        "total_time": result.total_time,
        "flops_executed": result.flops_executed,
        "bytes_moved": result.bytes_moved,
        "compute_utilization": result.compute_utilization,
        "memory_utilization": result.memory_utilization,
        "energy_joules": result.energy_joules,
        "colocation_fraction": result.colocation_fraction,
        "avg_resident_ctas": result.avg_resident_ctas,
    }
    for i, kernel in enumerate(result.kernels):
        fields[f"kernels[{i}].start_time"] = kernel.start_time
        fields[f"kernels[{i}].end_time"] = kernel.end_time
    fields.update({f"tag_flops[{tag}]": value for tag, value in result.tag_flops.items()})
    fields.update({f"tag_bytes[{tag}]": value for tag, value in result.tag_bytes.items()})
    return fields


def assert_matches_reference(spec: GPUSpec, build: Callable[[], list[KernelLaunch]]) -> None:
    """Run ``build()``'s launches on both engines and compare every numeric field.

    Each engine gets freshly built launches: POD-Attention's binder keeps
    per-kernel dispatch state.
    """
    got = _fields(ExecutionEngine(spec).run(build()))
    want = _fields(ReferenceEngine(spec).run(build()))
    assert got.keys() == want.keys()
    off = {
        name: (got[name], want[name])
        for name in want
        if abs(got[name] - want[name]) > REL * abs(want[name])
    }
    assert not off, f"fields differ from the reference engine beyond {REL} relative: {off}"


@pytest.mark.parametrize("executor", EXECUTORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("config", sorted(table1_configs()))
def test_table1_executors(llama3_deployment, config, executor):
    batch = table1_configs()[config]
    assert_matches_reference(
        llama3_deployment.gpu, lambda: executor().build_launches(llama3_deployment, batch)
    )


@pytest.mark.parametrize(
    "pod_config", [pod_config_2_ctas_per_sm, pod_config_4_ctas_per_sm], ids=["2_per_sm", "4_per_sm"]
)
@pytest.mark.parametrize(
    "point", figure13_grid(), ids=lambda p: f"ctx{p.context_length}-bs{p.decode_batch_size}"
)
def test_figure13_grid(llama3_deployment, point, pod_config):
    batch = point.to_batch()
    assert_matches_reference(
        llama3_deployment.gpu,
        lambda: PODAttention(config=pod_config()).build_launches(llama3_deployment, batch),
    )


@pytest.mark.parametrize(
    "policy", [FiftyFiftyPolicy, ProportionalPolicy], ids=["fifty_fifty", "proportional"]
)
@pytest.mark.parametrize("decode_batch_size", [32, 192])
@pytest.mark.parametrize("model", ["yi_deployment", "llama3_deployment"])
def test_figure14_policies(request, model, decode_batch_size, policy):
    deployment = request.getfixturevalue(model)
    batch = HybridBatch.uniform(
        chunk_tokens=2048,
        prefill_context=8192,
        decode_batch_size=decode_batch_size,
        decode_context=8192,
    )
    assert_matches_reference(
        deployment.gpu,
        lambda: PODAttention(policy=policy()).build_launches(deployment, batch),
    )


# ------------------------------------------------------------ random mixes

A100 = a100_sxm_80gb()

# A CTA with no work at all stalls both engines (nothing progresses), so every
# generated CTA has some FLOPs, bytes or fixed latency.
works = st.builds(
    CTAWork,
    flops=st.just(0.0) | st.floats(1.0, A100.tensor_flops_per_sm * 2e-4),
    dram_bytes=st.just(0.0) | st.floats(1.0, A100.sm_mem_bandwidth * 2e-4),
    tag=st.sampled_from([PREFILL_TAG, DECODE_TAG, "", "other"]),
    fixed_time=st.just(0.0) | st.floats(1e-7, 2e-5),
    max_compute_fraction=st.floats(0.05, 1.0),
    max_mem_fraction=st.floats(0.05, 1.0),
    meta=st.sampled_from([{}, {"pipe": "cuda"}]),
).filter(lambda work: work.flops or work.dram_bytes or work.fixed_time)


@st.composite
def kernels(draw: st.DrawFn, index: int) -> Kernel:
    """A kernel of up to 300 CTAs cycling through a few work shapes, static or bound."""
    shapes = draw(st.lists(works, min_size=1, max_size=4))
    num_ctas = draw(st.integers(1, 300))
    footprint = {
        "threads_per_cta": draw(st.sampled_from([64, 128, 256])),
        "shared_mem_per_cta": draw(st.sampled_from([0, 16 * KB, 48 * KB, 100 * KB])),
        "registers_per_thread": draw(st.sampled_from([32, 128, 255])),
    }
    name = f"k{index}"
    if draw(st.booleans()):
        ctas = [shapes[i % len(shapes)] for i in range(num_ctas)]
        return Kernel.from_ctas(name, ctas, **footprint)

    def binder(sm_id: int, dispatch_index: int) -> CTAWork:
        return shapes[(sm_id + dispatch_index) % len(shapes)]

    return Kernel.with_binder(name, num_ctas, binder, **footprint)


@st.composite
def launch_mixes(draw: st.DrawFn) -> list[KernelLaunch]:
    count = draw(st.integers(1, 4))
    return [
        KernelLaunch(kernel=draw(kernels(i)), stream=draw(st.integers(0, 2)))
        for i in range(count)
    ]


@given(launch_mixes())
def test_random_launch_mixes(launches):
    assert_matches_reference(A100, lambda: launches)
