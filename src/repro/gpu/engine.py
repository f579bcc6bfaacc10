"""Event-driven fluid execution engine for the simulated GPU.

The engine models the GPU as a processor-sharing system:

* every SM has a private compute throughput per pipe (tensor cores, CUDA
  cores), split evenly at each instant among its resident CTAs that still
  have work on that pipe, each capped at ``max_compute_fraction`` of it;
* each SM with memory-active CTAs draws
  ``min(sm_mem_bandwidth, hbm_bandwidth / active_sms)`` from DRAM; that share
  is split evenly among the SM's memory-active CTAs, each capped at
  ``max_mem_fraction * sm_mem_bandwidth``, and bandwidth that capped CTAs
  leave unused is not redistributed;
* a CTA retires once its compute work, its memory work and its fixed latency
  are all exhausted;
* the hardware CTA scheduler dispatches CTAs from eligible kernel launches,
  earlier launches first, like in-order stream scheduling with overflow.  Each
  CTA goes to the SM with the fewest resident CTAs that still has room for it
  (threads / shared memory / registers / CTA-count limits), ties going to the
  lowest SM index.

This first-order model reproduces the phenomena the paper's argument rests
on: compute-bound prefill leaves DRAM idle, memory-bound decode leaves tensor
cores idle, wave quantization strands SMs in the last wave, warp-fused CTAs
suffer stragglers, and SM-level co-location of prefill and decode allows both
resources to be saturated at once.

State is kept only for resident CTAs, one row each in flat NumPy arrays in
dispatch order: rows are appended at dispatch and dropped at retirement, so
every event costs time in the number of CTAs on the GPU, not in the grid.
Per-SM resource use is one small array, so placing a CTA is one vectorised
fit test plus an ``argmin``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import numpy.typing as npt

from repro.gpu.config import GPUSpec
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.occupancy import max_resident_ctas
from repro.gpu.result import ExecutionResult, KernelResult

_EPS = 1e-15
#: Operation kinds tracked per CTA; CTAs with any other tag count as untagged.
_KINDS = (PREFILL_TAG, DECODE_TAG, "untagged")
_KIND_OF = {PREFILL_TAG: 0, DECODE_TAG: 1}
_TIME_EPS = 1e-12
_MAX_EVENTS = 500_000
#: Resident-count stand-in for SMs that cannot host the CTA being placed.
_NO_ROOM = np.iinfo(np.int64).max
#: Relative rounding slack allowed when checking busy time against the makespan.
_BUSY_SLACK = 1e-9


def busy_fraction(resource: str, busy: float, makespan: float) -> float:
    """Utilization of ``resource``: its busy time over the makespan.

    Raises:
        RuntimeError: if the resource was busy for longer than the makespan,
            which means the engine did not conserve work.
    """
    if busy > makespan * (1.0 + _BUSY_SLACK):
        raise RuntimeError(f"{resource} busy time {busy!r} s exceeds the makespan {makespan!r} s")
    return busy / makespan


@dataclass
class _LaunchState:
    """Mutable progress tracking for one kernel launch."""

    launch: KernelLaunch
    index: int
    dispatched: int = 0
    completed: int = 0
    eligible_time: float | None = None
    start_time: float | None = None
    end_time: float | None = None

    @property
    def kernel(self) -> Kernel:
        return self.launch.kernel

    @property
    def fully_dispatched(self) -> bool:
        return self.dispatched >= self.kernel.num_ctas

    @property
    def finished(self) -> bool:
        return self.completed >= self.kernel.num_ctas


class _Row(NamedTuple):
    """One resident CTA's state, as appended to :class:`_Residents`."""

    rem: tuple[float, float, float]  # FLOPs, DRAM bytes and fixed latency still to go
    cap: tuple[float, float, float]  # caps on the rates ``rem`` drains at
    peak: float  # peak FLOP/s of the CTA's pipe on one SM
    sm: int
    pipe_slot: int  # 2 * sm + (1 if the CTA runs on CUDA cores else 0)
    kind: int  # index into _KINDS
    launch: int


class _Residents:
    """Per-CTA state of the resident CTAs: one row per CTA, in dispatch order."""

    def __init__(self) -> None:
        self.rem = np.zeros((0, 3))
        self.cap = np.zeros((0, 3))
        self.peak = np.zeros(0)
        self.sm = np.zeros(0, dtype=np.int64)
        self.pipe_slot = np.zeros(0, dtype=np.int64)
        self.kind = np.zeros(0, dtype=np.int64)
        self.launch = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.sm)

    def append(self, rows: list[_Row]) -> None:
        for name, column in zip(_Row._fields, zip(*rows)):
            setattr(self, name, np.concatenate((getattr(self, name), column)))

    def keep(self, mask: npt.NDArray[np.bool_]) -> None:
        """Drop every row where ``mask`` is false, preserving the order of the rest."""
        for name in _Row._fields:
            setattr(self, name, getattr(self, name)[mask])


class ExecutionEngine:
    """Executes kernel launches on a simulated GPU and reports timing/utilization.

    The engine keeps no state between runs: running the same launches twice
    gives identical results.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    def run(self, launches: Sequence[KernelLaunch]) -> ExecutionResult:
        """Execute ``launches`` and return the simulated :class:`ExecutionResult`."""
        if not launches:
            raise ValueError("run() requires at least one kernel launch")
        for launch in launches:
            # Validate occupancy up-front so configuration errors surface early.
            if max_resident_ctas(self.spec, launch.kernel) == 0:
                raise ValueError(
                    f"kernel {launch.kernel.name!r} cannot fit a single CTA on an SM of "
                    f"{self.spec.name}"
                )
        return _Execution(self.spec, list(launches)).run()

    def run_kernel(self, kernel: Kernel, stream: int = 0) -> ExecutionResult:
        """Convenience wrapper for executing a single kernel."""
        return self.run([KernelLaunch(kernel=kernel, stream=stream)])


class _Execution:
    """One simulation run (separate from the engine so the engine is reusable)."""

    def __init__(self, spec: GPUSpec, launches: list[KernelLaunch]) -> None:
        self.spec = spec
        self.launches = [_LaunchState(launch=launch, index=i) for i, launch in enumerate(launches)]
        self.time = 0.0
        self.res = _Residents()

        # Per-SM resource use and limits, and each launch's per-CTA demand, as
        # columns (CTAs, threads, shared memory, registers).
        self.sm_limit = np.array(
            [
                spec.max_ctas_per_sm,
                spec.max_threads_per_sm,
                spec.shared_mem_per_sm,
                spec.registers_per_sm,
            ]
        )
        kernels = [state.kernel for state in self.launches]
        self.need = np.array(
            [[1, k.threads_per_cta, k.shared_mem_per_cta, k.registers_per_thread] for k in kernels]
        )
        self.need[:, 3] *= self.need[:, 1]  # registers per thread -> per CTA
        self.sm_used = np.zeros((spec.num_sms, 4), dtype=self.need.dtype)

        # Busy-time integrals for utilization and energy accounting.
        self.tensor_flops_done = 0.0
        self.cuda_flops_done = 0.0
        self.bytes_done = 0.0
        self.tag_flops: dict[str, float] = {}
        self.tag_bytes: dict[str, float] = {}
        self.colocated_sm_seconds = 0.0
        self.active_sm_seconds = 0.0
        self.resident_cta_seconds = 0.0
        self._need_dispatch = True

        seen_streams: set[int] = set()
        for state in self.launches:
            if state.launch.stream not in seen_streams:
                state.eligible_time = spec.kernel_launch_overhead
                seen_streams.add(state.launch.stream)

    # ------------------------------------------------------------- dispatch

    def _pending_times(self) -> list[float]:
        """Eligibility times of the unlocked launches that still have CTAs to dispatch."""
        return [
            state.eligible_time
            for state in self.launches
            if state.eligible_time is not None and not state.fully_dispatched
        ]

    def _dispatch_ready_ctas(self) -> bool:
        """Dispatch every CTA that fits now, earlier launches first."""
        rows: list[_Row] = []
        for state in self.launches:
            if (
                state.eligible_time is None
                or state.eligible_time > self.time + _TIME_EPS
                or state.fully_dispatched
            ):
                continue
            need = self.need[state.index]
            # Dispatching only consumes resources, so once a launch stops
            # fitting no earlier launch can fit either: one pass is enough.
            while not state.fully_dispatched:
                fits = (self.sm_used + need <= self.sm_limit).all(axis=1)
                if not fits.any():
                    break
                sm = int(np.argmin(np.where(fits, self.sm_used[:, 0], _NO_ROOM)))
                self.sm_used[sm] += need
                rows.append(self._bind(state, sm))
        if rows:
            self.res.append(rows)
        return bool(rows)

    def _bind(self, state: _LaunchState, sm: int) -> _Row:
        """Resolve the work of ``state``'s next CTA, placed on ``sm``, into a resident row."""
        spec = self.spec
        work = state.kernel.work_for(state.dispatched, sm)
        if state.start_time is None:
            state.start_time = self.time
        state.dispatched += 1
        cuda = work.meta.get("pipe") == "cuda"
        peak = spec.cuda_flops_per_sm if cuda else spec.tensor_flops_per_sm
        return _Row(
            rem=(work.flops, work.dram_bytes, work.fixed_time),
            cap=(
                work.max_compute_fraction * peak,
                work.max_mem_fraction * spec.sm_mem_bandwidth,
                1.0,
            ),
            peak=peak,
            sm=sm,
            pipe_slot=2 * sm + cuda,
            kind=_KIND_OF.get(work.tag, 2),
            launch=state.index,
        )

    # ------------------------------------------------------------------ loop

    def _rates(self) -> npt.NDArray[np.float64]:
        """How fast each resident's ``rem`` drains: FLOP/s, bytes/s, and 1 for fixed latency."""
        spec = self.spec
        res = self.res
        active = res.rem > _EPS
        # Compute: each SM pipe's peak split among its compute-active residents.
        per_pipe = np.bincount(res.pipe_slot[active[:, 0]], minlength=2 * spec.num_sms)
        # Memory: each active SM's DRAM share split among its memory-active residents.
        per_sm = np.bincount(res.sm[active[:, 1]], minlength=spec.num_sms)
        active_sms = int(np.count_nonzero(per_sm))
        per_sm_bw = min(spec.sm_mem_bandwidth, spec.hbm_bandwidth / max(active_sms, 1))
        share = np.ones_like(res.cap)
        np.divide(res.peak, np.maximum(per_pipe[res.pipe_slot], 1), out=share[:, 0])
        np.divide(per_sm_bw, np.maximum(per_sm[res.sm], 1), out=share[:, 1])
        return np.where(active, np.minimum(share, res.cap), 0.0)

    def _next_event_dt(self, rates: npt.NDArray[np.float64]) -> float:
        drain = np.divide(self.res.rem, rates, out=np.full_like(rates, np.inf), where=rates > _EPS)
        dt = float(drain.min())
        # A launch waiting only on its launch-overhead gap can also be the next event.
        for eligible_time in self._pending_times():
            if eligible_time > self.time + _TIME_EPS:
                dt = min(dt, eligible_time - self.time)
        return dt

    def _advance(self, dt: float, rates: npt.NDArray[np.float64]) -> None:
        res = self.res
        num_sms = self.spec.num_sms
        prefill = np.bincount(res.sm[res.kind == 0], minlength=num_sms)
        decode = np.bincount(res.sm[res.kind == 1], minlength=num_sms)
        self.colocated_sm_seconds += int(np.count_nonzero(np.minimum(prefill, decode))) * dt
        self.active_sm_seconds += int(np.count_nonzero(self.sm_used[:, 0])) * dt
        self.resident_cta_seconds += len(res) * dt

        step = np.minimum(res.rem, rates * dt)
        res.rem -= step
        flops, nbytes = step[:, 0], step[:, 1]
        tensor, cuda = np.bincount(res.pipe_slot % 2, weights=flops, minlength=2).tolist()
        self.tensor_flops_done += tensor
        self.cuda_flops_done += cuda
        self.bytes_done += float(nbytes.sum())
        kind_flops = np.bincount(res.kind, weights=flops, minlength=len(_KINDS)).tolist()
        kind_bytes = np.bincount(res.kind, weights=nbytes, minlength=len(_KINDS)).tolist()
        for tag, f, b in zip(_KINDS, kind_flops, kind_bytes):
            if f or b:
                self.tag_flops[tag] = self.tag_flops.get(tag, 0.0) + f
                self.tag_bytes[tag] = self.tag_bytes.get(tag, 0.0) + b
        self.time += dt

    def _retire_finished(self) -> bool:
        res = self.res
        done = (res.rem <= _EPS).all(axis=1)
        if not done.any():
            return False
        launches = res.launch[done]
        np.subtract.at(self.sm_used, res.sm[done], self.need[launches])
        res.keep(~done)
        for index, count in enumerate(np.bincount(launches).tolist()):
            state = self.launches[index]
            state.completed += count
            if count and state.finished and state.end_time is None:
                state.end_time = self.time
                self._unlock_successor(state)
        return True

    def _unlock_successor(self, finished_state: _LaunchState) -> None:
        stream = finished_state.launch.stream
        for state in self.launches[finished_state.index + 1 :]:
            if state.launch.stream == stream:
                if state.eligible_time is None:
                    state.eligible_time = self.time + self.spec.kernel_launch_overhead
                return

    def run(self) -> ExecutionResult:
        for _ in range(_MAX_EVENTS):
            if self._need_dispatch and not self._dispatch_ready_ctas():
                # Nothing fits right now; retry only after a CTA retires or a
                # new launch becomes eligible.
                self._need_dispatch = False
            if not len(self.res):
                pending = self._pending_times()
                if not pending:
                    break
                next_time = min(pending)
                if next_time <= self.time + _TIME_EPS:
                    if self._need_dispatch:
                        # Eligible but nothing dispatched: should not happen because
                        # occupancy was validated; guard against infinite loops.
                        raise RuntimeError("no CTA could be dispatched despite eligible launches")
                    self._need_dispatch = True
                    continue
                self.time = next_time
                self._need_dispatch = True
                continue
            rates = self._rates()
            dt = self._next_event_dt(rates)
            if not np.isfinite(dt):
                raise RuntimeError("simulation stalled: residents exist but nothing progresses")
            previous_time = self.time
            self._advance(dt, rates)
            if self._retire_finished():
                self._need_dispatch = True
            if not self._need_dispatch:
                self._need_dispatch = any(
                    previous_time < eligible_time <= self.time + _TIME_EPS
                    for eligible_time in self._pending_times()
                )
        else:  # pragma: no cover - safety net
            raise RuntimeError("execution exceeded the maximum number of simulation events")

        return self._build_result()

    # ---------------------------------------------------------------- result

    def _build_result(self) -> ExecutionResult:
        spec = self.spec
        total_time = self.time if self.time > 0 else _EPS
        tensor_busy = self.tensor_flops_done / spec.tensor_flops
        cuda_busy = self.cuda_flops_done / spec.cuda_core_flops
        mem_busy = self.bytes_done / spec.hbm_bandwidth
        energy = (
            spec.idle_power * total_time
            + spec.compute_power * (tensor_busy + cuda_busy)
            + spec.mem_power * mem_busy
        )
        kernels = [
            KernelResult(
                name=state.kernel.name,
                stream=state.launch.stream,
                start_time=state.start_time if state.start_time is not None else 0.0,
                end_time=state.end_time if state.end_time is not None else total_time,
                num_ctas=state.kernel.num_ctas,
            )
            for state in self.launches
        ]
        colocation = (
            self.colocated_sm_seconds / self.active_sm_seconds
            if self.active_sm_seconds > 0
            else 0.0
        )
        return ExecutionResult(
            total_time=total_time,
            kernels=kernels,
            compute_utilization=busy_fraction("compute", tensor_busy + cuda_busy, total_time),
            memory_utilization=busy_fraction("memory", mem_busy, total_time),
            flops_executed=self.tensor_flops_done + self.cuda_flops_done,
            bytes_moved=self.bytes_done,
            energy_joules=energy,
            tag_flops=dict(self.tag_flops),
            tag_bytes=dict(self.tag_bytes),
            colocation_fraction=colocation,
            avg_resident_ctas=self.resident_cta_seconds / total_time,
        )
