"""Per-layer attribution for the traced run.

The traced run wraps the public entry point of every simulator layer
from here, without touching ``src/``.  Each wrapper is one span: it
counts the call, its busy time and its *self* time (busy time minus the
busy time of wrapped calls made inside it), so the layers' self times
add up to the wall time the spans cover.  Wrappers are installed on the
class or module attribute, and on every ``from ... import f`` binding of
a wrapped function, then removed again.

Entry points are named ``<layer>.<what>``; the layer is the first
component and is one of :data:`LAYERS`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Callable, Iterator
from typing import Any

#: Simulator layers, named after the packages they live in.
LAYERS = (
    "workloads",  # repro.workloads
    "engine",  # repro.core.engine + repro.core.runner
    "accel",  # repro.accel
    "policies",  # repro.policies
    "sampling",  # repro.sampling
    "cbf",  # repro.cbf
    "memsim",  # repro.memsim
    "metrics",  # repro.core.metrics
    "state",  # repro.state (+ engine capture/restore)
    "serve",  # repro.serve
    "parallel",  # repro.core.parallel + repro.core.shm
)

#: Policies whose ``on_batch`` cost is reported by name.
REPORTED_POLICIES = ("freqtier", "autonuma", "tpp", "hemem")

#: Entry points that must record calls on a workload, by workload.  A
#: wrapper that misses a binding shows up here as zero calls.
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "cdn_grid": (
        "workloads.build", "workloads.next", "engine.run", "engine.step",
        "accel.compressed_placement_counts", "accel.hint_faults",
        "policies.freqtier.on_batch", "policies.autonuma.on_batch",
        "policies.tpp.on_batch", "policies.hemem.on_batch",
        "sampling.pebs_observe", "sampling.hint_scan", "cbf.increase",
        "memsim.move_pages", "memsim.cost_model", "metrics.record",
        "metrics.finalize", "state.save", "state.load",
        "state.restore_state", "parallel.publish_stream",
        "parallel.shm_next", "parallel.run_cell",
    ),
    "gap_graph": (
        "workloads.build", "workloads.next", "engine.run", "engine.step",
        "accel.placement_counts", "policies.freqtier.on_batch",
        "policies.autonuma.on_batch", "policies.tpp.on_batch",
        "policies.hemem.on_batch", "sampling.pebs_observe",
        "sampling.hint_scan", "cbf.increase", "memsim.move_pages",
        "memsim.cost_model", "metrics.record", "metrics.finalize",
        "state.save", "state.load", "state.restore_state",
    ),
    "serve_chaos": (
        "workloads.build", "workloads.next", "engine.step",
        "accel.compressed_placement_counts", "accel.placement_counts",
        "policies.freqtier.on_batch", "sampling.pebs_observe",
        "cbf.increase", "memsim.move_pages", "memsim.cost_model",
        "metrics.record", "metrics.finalize", "state.save", "state.load",
        "state.restore_state", "serve.tick", "serve.recover",
        "serve.submit", "serve.driver_step",
    ),
}


class SpanTracer:
    """Call count, busy and self time per entry point, plus counters.

    ``clock`` is injectable so tests can script time.  Re-entrant calls
    of the same entry point (a subclass method calling its parent's)
    add their self time but not a second copy of their busy time.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        #: entry point -> [calls, busy_ns, self_ns]
        self.spans: dict[str, list[int]] = {}
        #: free-form counts recorded at the same boundaries
        self.counts: Counter[str] = Counter()
        #: per-call durations, for entry points whose spread is reported
        self.durations: defaultdict[str, list[int]] = defaultdict(list)
        #: set while a restarted run regenerates its completed prefix
        self.replaying = False
        self._child_ns: list[int] = []
        self._depth: Counter[str] = Counter()

    def call(self, key: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` as one span of ``key``.

        The span's duration is left in :attr:`last_ns` for wrappers that
        record it.
        """
        stack = self._child_ns
        stack.append(0)
        depth = self._depth[key]
        self._depth[key] = depth + 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._depth[key] = depth
            child = stack.pop()
            span = self.spans.get(key)
            if span is None:
                span = self.spans[key] = [0, 0, 0]
            span[0] += 1
            if depth == 0:
                span[1] += elapsed
            span[2] += elapsed - child
            if stack:
                stack[-1] += elapsed
            self.last_ns = elapsed

    def calls(self, key: str) -> int:
        return self.spans.get(key, (0, 0, 0))[0]

    def busy_ms(self, *keys: str) -> float:
        return sum(self.spans.get(k, (0, 0, 0))[1] for k in keys) / 1e6

    def self_ms(self, key: str) -> float:
        return self.spans.get(key, (0, 0, 0))[2] / 1e6

    def layer_self_ms(self) -> dict[str, float]:
        """Self time summed per layer (the first component of each key)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, self_ns) in self.spans.items():
            out[key.split(".", 1)[0]] += self_ns / 1e6
        return out

    def missing_calls(self, workload: str) -> list[str]:
        """Expected entry points of ``workload`` that recorded no call."""
        return [k for k in EXPECTED_CALLS[workload] if self.calls(k) == 0]


class _TimedStream:
    """Iterator proxy that times every ``next()`` of a batch stream."""

    __slots__ = ("_tracer", "_key", "_it", "_generated")

    def __init__(self, tracer: SpanTracer, key: str, it: Iterator, generated: bool):
        self._tracer = tracer
        self._key = key
        self._it = it
        self._generated = generated

    def __iter__(self) -> "_TimedStream":
        return self

    def __next__(self):
        tracer = self._tracer
        batch = tracer.call(self._key, next, self._it)
        if self._generated:
            tracer.counts["workloads.batches"] += 1
            tracer.counts["workloads.accesses"] += batch.num_accesses
            if tracer.replaying:
                tracer.counts["workloads.replayed_batches"] += 1
        return batch


class Patcher:
    """Installs wrappers and restores the originals on :meth:`restore`."""

    #: Modules scanned for ``from ... import f`` bindings of a function.
    SCAN_PREFIXES = ("repro", "perfbench", "__main__")

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, base: type, name: str, make: Callable[[type, Callable], Callable]) -> None:
        """Wrap ``name`` on ``base`` and on every subclass defining it."""
        seen: set[type] = set()
        todo = [base]
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if name in cls.__dict__:
                self._set(cls, name, make(cls, cls.__dict__[name]))

    def function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Wrap a module-level function at every binding of it."""
        original = getattr(module, name)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(self.SCAN_PREFIXES):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _span(
    tracer: SpanTracer,
    key: str,
    after: Callable | None = None,
    before: Callable | None = None,
):
    """``make`` callback: wrap a callable as one span of ``key``.

    ``after(args, result)`` sees each successful call's positional
    arguments and result; ``before()`` runs ahead of every call.
    """

    def make(*target: Any) -> Callable:
        fn = target[-1]

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before()
            result = tracer.call(key, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    return make


def _stream(tracer: SpanTracer, key: str, generated: bool):
    def make(cls: type, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(self: Any) -> _TimedStream:
            return _TimedStream(tracer, key, iter(fn(self)), generated)

        return wrapper

    return make


def _policy_key(cls: type) -> str:
    return "policies." + str(getattr(cls, "name", cls.__name__)).lower()


def install(tracer: SpanTracer) -> Patcher:
    """Wrap every layer's entry points so they report to ``tracer``."""
    from repro import accel
    from repro.cbf.cbf import CountingBloomFilter
    from repro.cbf.coalescing import SampleCoalescer
    from repro.cbf.exact import ExactFrequencyTracker
    from repro.core import parallel, runner, shm
    from repro.core.engine import SimulationEngine
    from repro.core.metrics import MetricsCollector
    from repro.memsim.costmodel import CostModel
    from repro.memsim.machine import Machine
    from repro.memsim.pagetable import LOCAL_TIER
    from repro.policies.base import TieringPolicy
    from repro.sampling.pebs import PEBSSampler
    from repro.sampling.recency import HintFaultScanner
    from repro.serve import TieringDaemon, VirtualTimeDriver
    from repro.state import CheckpointManager
    from repro.workloads.spec import Workload

    p = Patcher()
    t = tracer
    counts = t.counts

    # Between a restart and its first serviced batch, streams only
    # regenerate the prefix the restored state already covers.
    def restarted(args: tuple, _: Any) -> None:
        t.replaying = True

    def end_replay() -> None:
        if t.replaying:
            # A resumed engine run pulls one fresh batch before its
            # first step; that pull is not part of the replay.
            counts["workloads.replayed_batches"] -= 1
            t.replaying = False

    # workloads: construction, layout and every stream next().
    p.method(Workload, "__init__", _span(t, "workloads.build"))
    p.method(Workload, "setup", _span(t, "workloads.setup"))
    p.method(Workload, "batches", _stream(t, "workloads.next", generated=True))

    # engine: the batch loop and the runner facade around it.
    for name in ("run", "setup", "finalize"):
        p.method(SimulationEngine, name, _span(t, f"engine.{name}"))
    p.method(SimulationEngine, "step", _span(t, "engine.step", before=end_replay))
    p.function(runner, "run_experiment", _span(t, "engine.run_experiment"))
    p.function(runner, "run_all_local", _span(t, "engine.run_all_local"))

    # accel: every fused kernel, called as ``accel.<kernel>``.
    for name in (
        "placement_counts", "placement_prefix", "compressed_placement_counts",
        "blocked_indices", "classic_indices", "cbf_fused_update",
        "gap_positions", "expand_runs", "run_pages_at", "strided_run_pages",
        "weighted_page_counts", "hint_faults",
    ):
        p.function(accel, name, _span(t, f"accel.{name}"))

    # policies: construction, attach and on_batch (with modeled cost).
    def on_batch(cls: type, fn: Callable) -> Callable:
        key = _policy_key(cls)

        def modeled(args: tuple, overhead_ns: float) -> None:
            counts[f"{key}.modeled_ns"] += overhead_ns

        return _span(t, f"{key}.on_batch", modeled)(fn)

    p.method(TieringPolicy, "on_batch", on_batch)
    p.method(TieringPolicy, "__init__", lambda cls, fn: _span(t, f"{_policy_key(cls)}.build")(fn))
    p.method(TieringPolicy, "attach", lambda cls, fn: _span(t, f"{_policy_key(cls)}.attach")(fn))

    # sampling: PEBS and the hint-fault scanner.
    def drained(args: tuple, batch: Any) -> None:
        counts["sampling.pebs_samples"] += batch.num_samples

    def faulted(args: tuple, fault: Any) -> None:
        counts["sampling.hint_faults"] += fault.count

    p.method(PEBSSampler, "observe", _span(t, "sampling.pebs_observe"))
    p.method(PEBSSampler, "drain", _span(t, "sampling.pebs_drain", drained))
    p.method(HintFaultScanner, "observe", _span(t, "sampling.hint_scan", faulted))
    p.method(HintFaultScanner, "scan_tick", _span(t, "sampling.hint_unmap"))

    # cbf: FreqTier's filter, its coalescer, HeMem's exact tracker.
    def keyed(args: tuple, _: Any) -> None:
        counts["cbf.keys"] += len(args[1])

    p.method(CountingBloomFilter, "increase", _span(t, "cbf.increase", keyed))
    p.method(SampleCoalescer, "ingest", _span(t, "cbf.coalesce"))
    p.method(ExactFrequencyTracker, "increase", _span(t, "cbf.exact_increase"))

    # memsim: machine build, migrations by direction, cost model.
    def moved(args: tuple, outcome: Any) -> None:
        way = "promote" if args[2] == LOCAL_TIER else "demote"
        counts[f"memsim.{way}_pages_requested"] += len(args[1])
        counts[f"memsim.{way}_pages_moved"] += outcome.num_moved

    p.method(Machine, "__init__", _span(t, "memsim.build"))
    p.method(Machine, "move_pages_ex", _span(t, "memsim.move_pages", moved))
    p.method(CostModel, "batch_cost", _span(t, "memsim.cost_model"))

    # metrics: per-batch recording and the end-of-run reduction.
    p.method(MetricsCollector, "record_batch", _span(t, "metrics.record"))
    p.method(MetricsCollector, "finalize", _span(t, "metrics.finalize"))

    # state: snapshot capture/restore and the durable checkpoint files.
    def saved(args: tuple, path: Any) -> None:
        t.durations["state.save"].append(t.last_ns)
        size = os.path.getsize(path)
        counts.setdefault("state.checkpoint_bytes_first", size)
        counts["state.checkpoint_bytes_last"] = size

    p.method(SimulationEngine, "capture_state", _span(t, "state.capture"))
    p.method(SimulationEngine, "restore_state", _span(t, "state.restore_state", restarted))
    p.method(CheckpointManager, "save", _span(t, "state.save", saved))
    p.method(CheckpointManager, "load_latest", _span(t, "state.load"))

    # serve: daemon ticks, intake, recovery, and the driver loop.
    def driver_stepped(args: tuple, _: Any) -> None:
        # A crashed driver step resyncs its streams before returning.
        t.replaying = False

    for name in ("__init__", "tick", "tick_guarded", "submit", "save_checkpoint",
                 "drain", "finalize"):
        p.method(TieringDaemon, name, _span(t, f"serve.{name.strip('_')}"))
    p.method(TieringDaemon, "recover", _span(t, "serve.recover", restarted))
    p.method(VirtualTimeDriver, "__init__", _span(t, "serve.driver_init"))
    p.method(VirtualTimeDriver, "step", _span(t, "serve.driver_step", driver_stepped))

    # parallel: executor glue, stream publication and shm replay.
    p.function(parallel, "run_cell", _span(t, "parallel.run_cell"))
    p.method(parallel.ParallelExecutor, "run", _span(t, "parallel.executor_run"))
    p.function(shm, "publish_stream", _span(t, "parallel.publish_stream"))
    p.method(shm.SharedStreamWorkload, "__init__", _span(t, "parallel.shm_build"))
    p.method(shm.SharedStreamWorkload, "batches", _stream(t, "parallel.shm_next", generated=False))

    return p


def layer_metrics(tracer: SpanTracer, passes: int) -> dict[str, float]:
    """The per-layer figures of ``passes`` traced passes, per pass."""
    t = tracer
    c = t.counts
    n = float(passes)
    out: dict[str, float] = {
        "workloads.gen_ms": t.busy_ms("workloads.next") / n,
        "workloads.batches": c["workloads.batches"] / n,
        "workloads.accesses": c["workloads.accesses"] / n,
        "workloads.replayed_batches": c["workloads.replayed_batches"] / n,
        "engine.step_self_ms": t.self_ms("engine.step") / n,
    }
    for kernel in ("compressed_placement_counts", "placement_counts", "hint_faults"):
        out[f"accel.{kernel}_ms"] = t.busy_ms(f"accel.{kernel}") / n
        out[f"accel.{kernel}_calls"] = t.calls(f"accel.{kernel}") / n
    for policy in REPORTED_POLICIES:
        key = f"policies.{policy}.on_batch"
        modeled = c[f"policies.{policy}.modeled_ns"]
        out[f"policies.{policy}.on_batch_self_ms"] = t.self_ms(key) / n
        out[f"policies.{policy}.real_over_modeled"] = (
            t.busy_ms(key) * 1e6 / modeled if modeled else 0.0
        )
    out.update({
        "sampling.pebs_observe_ms": t.busy_ms("sampling.pebs_observe") / n,
        "sampling.pebs_samples": c["sampling.pebs_samples"] / n,
        "sampling.hint_scan_ms": t.busy_ms("sampling.hint_scan") / n,
        "sampling.hint_faults": c["sampling.hint_faults"] / n,
        "cbf.increase_ms": t.busy_ms("cbf.increase") / n,
        "cbf.keys": c["cbf.keys"] / n,
        "memsim.move_pages_ms": t.busy_ms("memsim.move_pages") / n,
        "memsim.cost_model_ms": t.busy_ms("memsim.cost_model") / n,
    })
    for way in ("promote", "demote"):
        requested = c[f"memsim.{way}_pages_requested"]
        moved = c[f"memsim.{way}_pages_moved"]
        out[f"memsim.{way}_pages_requested"] = requested / n
        out[f"memsim.{way}_pages_moved"] = moved / n
        out[f"memsim.{way}_success_ratio"] = moved / requested if requested else 0.0
    saves = sorted(t.durations["state.save"])
    out.update({
        "metrics.record_ms": t.busy_ms("metrics.record") / n,
        "metrics.finalize_ms": t.busy_ms("metrics.finalize") / n,
        "state.save_ms_p50": saves[len(saves) // 2] / 1e6 if saves else 0.0,
        "state.save_ms_max": saves[-1] / 1e6 if saves else 0.0,
        "state.saves": len(saves) / n,
        "state.checkpoint_bytes_first": float(c["state.checkpoint_bytes_first"]),
        "state.checkpoint_bytes_last": float(c["state.checkpoint_bytes_last"]),
        "state.restore_ms": t.busy_ms("state.load", "state.restore_state") / n,
        "serve.tick_self_ms": t.self_ms("serve.tick") / n,
        "serve.recover_ms": t.busy_ms("serve.recover") / n,
        "serve.submit_us": (
            t.busy_ms("serve.submit") * 1e3 / t.calls("serve.submit")
            if t.calls("serve.submit") else 0.0
        ),
        "parallel.publish_stream_s": t.busy_ms("parallel.publish_stream") / 1e3 / n,
    })
    for layer, ms in t.layer_self_ms().items():
        out[f"{layer}.self_ms"] = ms / n
    return out
