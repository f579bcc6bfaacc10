"""Layer tracer for the traced benchmark run.

The tracer wraps the public entry point of each layer of the program (a
method on a public class), opens a span around every call into it, and
restores the original functions on exit.  A layer's self time is the time
spent in its spans minus the time covered by spans of other layers nested
inside them, so self times add up to the traced wall time less whatever no
layer claims (the benchmark's own loop, and program code outside every
wrapped function).

A call into a layer from inside the same layer (``super().run()``, or one
``KVCacheManager`` method calling another) stays inside the outer span and
is not counted again: ``calls`` counts entries into the layer from outside.

Every wrapped function is looked up by module, class and name when the tracer
is entered.  One that no longer exists is recorded in ``absent`` and its layer
reports zero calls, so a later change that deletes or renames it leaves the
benchmark running.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable


@dataclass(frozen=True)
class LayerSpec:
    """One layer and the public functions whose calls are its spans.

    ``methods`` of ``None`` means every public method defined on the class.
    With ``subclasses``, the method is wrapped on every subclass that defines
    its own version too (``schedule`` on each ``Scheduler``, for example).
    """

    name: str
    module: str
    cls: str
    methods: tuple[str, ...] | None
    subclasses: bool = False


LAYERS: tuple[LayerSpec, ...] = (
    LayerSpec("gpu.engine", "repro.gpu.engine", "ExecutionEngine", ("run",)),
    LayerSpec("attention.plan", "repro.attention.executors", "AttentionExecutor", ("run",), True),
    LayerSpec("serving.batch", "repro.serving.batch", "ScheduledBatch", ("to_hybrid_batch",)),
    LayerSpec(
        "serving.attention_backend",
        "repro.serving.attention_backend",
        "AttentionBackend",
        ("estimate",),
        True,
    ),
    LayerSpec(
        "models.transformer", "repro.models.transformer", "IterationCostModel",
        ("iteration_breakdown",),
    ),
    LayerSpec("serving.engine", "repro.serving.engine", "InferenceEngine", ("execute",)),
    LayerSpec("serving.scheduler", "repro.serving.scheduler", "Scheduler", ("schedule",), True),
    LayerSpec("serving.kv_cache", "repro.serving.kv_cache", "KVCacheManager", None),
    LayerSpec("serving.replica", "repro.serving.replica", "ReplicaRuntime", ("step",)),
    LayerSpec("cluster.router", "repro.cluster.router", "RouterPolicy", ("choose",), True),
    LayerSpec("cluster.loop", "repro.cluster.simulator", "ClusterSimulator", ("run",)),
    LayerSpec("workloads", "repro.workloads.scenario", "Scenario", ("build",)),
)

#: Counted but not timed (a span per poll would cost more than the poll):
#: the cluster loop asks replicas for their next ready time to pick the next
#: one to step.  Its time stays in ``cluster.loop`` self time.
READY_POLL = ("repro.serving.replica", "ReplicaRuntime", "next_ready_time")


class LayerStats:
    """Calls, self time and layer-specific counts of one layer."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.counts: Counter[str] = Counter()


def _engine_ctas(stats: LayerStats, obj: Any, token: Any, result: Any) -> None:
    ctas = getattr(result, "total_ctas", None)
    if ctas is not None:
        stats.counts["ctas"] += ctas


def _memo_size(obj: Any) -> Any:
    return getattr(obj, "cache_size", None)


def _memo_hit(stats: LayerStats, obj: Any, size_before: Any, result: Any) -> None:
    # The memo grows by one entry exactly when the estimate was a miss.
    if size_before is not None:
        stats.counts["memo_hits"] += int(obj.cache_size == size_before)


def _preemptions(stats: LayerStats, obj: Any, token: Any, result: Any) -> None:
    stats.counts["preemptions"] += len(getattr(result, "preempted", ()))


#: layer → (called before the span with the bound object, called after it).
_HOOKS: dict[str, tuple[Callable[[Any], Any] | None, Callable[..., None]]] = {
    "gpu.engine": (None, _engine_ctas),
    "serving.attention_backend": (_memo_size, _memo_hit),
    "serving.scheduler": (None, _preemptions),
}


def _lookup(module: str, name: str) -> Any:
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


def _classes(spec: LayerSpec) -> list[type] | None:
    root = _lookup(spec.module, spec.cls)
    if root is None:
        return None
    found = [root]
    if spec.subclasses:
        pending = [root]
        while pending:
            for sub in pending.pop().__subclasses__():
                if sub not in found:
                    found.append(sub)
                    pending.append(sub)
    return found


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, types.FunctionType)
    ]


class Tracer:
    """Context manager that traces the layers in ``LAYERS`` while it is open."""

    def __init__(self) -> None:
        self.stats = {spec.name: LayerStats() for spec in LAYERS}
        self.absent: list[str] = []
        self.ready_polls = 0
        self._stack: list[list[Any]] = []  # [LayerStats, time covered by children]
        self._patched: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Tracer":
        try:
            for spec in LAYERS:
                if not self._wrap_layer(spec):
                    self.absent.append(spec.name)
            module, cls_name, method = READY_POLL
            cls = _lookup(module, cls_name)
            poll = vars(cls).get(method) if isinstance(cls, type) else None
            if isinstance(poll, types.FunctionType):
                self._patch(cls, method, self._counter(poll))
            else:
                self.absent.append("cluster.loop.ready_polls")
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    def _patch(self, cls: type, name: str, wrapper: Callable[..., Any]) -> None:
        self._patched.append((cls, name, vars(cls)[name]))
        setattr(cls, name, wrapper)

    def _wrap_layer(self, spec: LayerSpec) -> bool:
        classes = _classes(spec)
        if classes is None:
            return False
        stats = self.stats[spec.name]
        before, after = _HOOKS.get(spec.name, (None, None))
        wrapped = False
        for cls in classes:
            names = spec.methods if spec.methods is not None else _public_methods(cls)
            for name in names:
                original = vars(cls).get(name)
                if isinstance(original, types.FunctionType):
                    self._patch(cls, name, self._span(stats, original, before, after))
                    wrapped = True
        return wrapped

    # ------------------------------------------------------------ wrappers

    def _span(
        self,
        stats: LayerStats,
        fn: Callable[..., Any],
        before: Callable[[Any], Any] | None,
        after: Callable[..., None] | None,
    ) -> Callable[..., Any]:
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] is stats:
                return fn(*args, **kwargs)
            token = before(args[0]) if before is not None else None
            frame = [stats, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if after is not None:
                after(stats, args[0], token, result)
            return result

        return wrapper

    def _counter(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.ready_polls += 1
            return fn(*args, **kwargs)

        return wrapper
