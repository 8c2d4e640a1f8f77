"""Parallel experiment executor over picklable cell specs.

Every reproduction grid is embarrassingly parallel: each (workload,
policy, config) cell builds fresh, identically-seeded instances and
shares no state with its neighbours, so cells can fan out across
processes with **bit-identical** results to a serial run -- the only
randomness is per-cell seeded RNGs, never a shared global stream.

The unit of work is a :class:`CellSpec`.  For process pools the spec's
factories must pickle, so instead of closures the preferred factories
are :class:`WorkloadSpec` / :class:`PolicySpec`: tiny (name, params)
records that rebuild the object through a registry inside the worker.
Specs are also *content-addressable* -- their (name, params) dicts plus
the :class:`~repro.core.config.ExperimentConfig` hash into a stable
fingerprint -- which is what lets
:class:`~repro.core.cache.ResultCache` skip already-computed cells.

``jobs`` semantics (shared by the executor and the CLI flags):

- ``jobs=1`` -- inline serial execution in this process (debuggable,
  works with arbitrary closure factories);
- ``jobs=0`` -- one worker per available CPU;
- ``jobs=N`` -- a pool of N worker processes.
"""

from __future__ import annotations

import os
import pickle
import re
import time
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

from repro.core.cache import ResultCache, cell_fingerprint, config_to_dict
from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.faults import FaultPlan
from repro.obs import trace_to

# --------------------------------------------------------------------------
# Factory registries
# --------------------------------------------------------------------------

_WORKLOAD_BUILDERS: dict[str, Callable[..., Any]] = {}
_POLICY_BUILDERS: dict[str, Callable[..., Any]] = {}


def register_workload(name: str, builder: Callable[..., Any]) -> None:
    """Register a workload builder callable under ``name``.

    ``builder(**params)`` must return a fresh
    :class:`~repro.workloads.spec.Workload`.  Registration happens at
    import time of this module for the built-ins; user registrations
    must run in every worker process too (module top level), or be
    limited to ``jobs=1``.
    """
    _WORKLOAD_BUILDERS[name] = builder


def register_policy(name: str, builder: Callable[..., Any]) -> None:
    """Register a policy builder callable under ``name``."""
    _POLICY_BUILDERS[name] = builder


def _build_freqtier(seed: int = 0, **config_fields: Any):
    from repro.policies.freqtier import FreqTier, FreqTierConfig

    config = FreqTierConfig(**config_fields) if config_fields else None
    return FreqTier(config=config, seed=seed)


def _register_builtins() -> None:
    from repro.policies import (
        AllLocal,
        AutoNUMA,
        DAMONRegion,
        HeMem,
        MultiClock,
        StaticNoMigration,
        TPP,
    )
    from repro.workloads import (
        CacheLibWorkload,
        CDN_PROFILE,
        GapWorkload,
        SOCIAL_PROFILE,
        SyntheticZipfWorkload,
        XGBoostWorkload,
    )
    from repro.workloads.traceio import TraceFileWorkload

    register_workload(
        "cdn", lambda **p: CacheLibWorkload(CDN_PROFILE, **p)
    )
    register_workload(
        "social", lambda **p: CacheLibWorkload(SOCIAL_PROFILE, **p)
    )
    register_workload("gap", GapWorkload)
    register_workload("xgboost", XGBoostWorkload)
    register_workload("zipf", SyntheticZipfWorkload)
    register_workload("trace", TraceFileWorkload)

    register_policy("freqtier", _build_freqtier)
    register_policy("hybridtier", _build_freqtier)
    register_policy("autonuma", AutoNUMA)
    register_policy("tpp", TPP)
    register_policy("hemem", HeMem)
    register_policy("multiclock", MultiClock)
    register_policy("damon", DAMONRegion)
    register_policy("static", lambda **p: StaticNoMigration())
    register_policy("alllocal", lambda **p: AllLocal())


_register_builtins()


# --------------------------------------------------------------------------
# Picklable, content-addressable factories
# --------------------------------------------------------------------------


class _RegistrySpec:
    """(name, params) factory resolved through a builder registry.

    Instances are zero-argument callables -- drop-in replacements for
    the closure factories :func:`repro.core.runner.run_experiment`
    historically took -- but unlike closures they pickle by value and
    expose :meth:`spec_dict` for content addressing.
    """

    _registry: dict[str, Callable[..., Any]] = {}
    _kind = "spec"

    __slots__ = ("name", "params")

    def __init__(self, name: str, **params: Any):
        self.name = name
        self.params = params

    def __call__(self) -> Any:
        try:
            builder = self._registry[self.name]
        except KeyError:
            valid = ", ".join(self.names())
            raise KeyError(
                f"unknown {self._kind} {self.name!r}; registered: {valid}"
            ) from None
        return builder(**self.params)

    @classmethod
    def names(cls) -> list[str]:
        """The names registered for this kind of spec, sorted."""
        return sorted(cls._registry)

    def spec_dict(self) -> dict[str, Any]:
        """JSON-serializable identity for cache fingerprinting."""
        return {"name": self.name, "params": dict(self.params)}

    def with_params(self, **overrides: Any) -> "_RegistrySpec":
        """A copy with ``overrides`` merged into the params."""
        merged = {**self.params, **overrides}
        return type(self)(self.name, **merged)

    # __slots__ classes need explicit pickle support.
    def __getstate__(self):
        return (self.name, self.params)

    def __setstate__(self, state):
        self.name, self.params = state

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and other.name == self.name  # type: ignore[attr-defined]
            and other.params == self.params  # type: ignore[attr-defined]
        )

    def __repr__(self) -> str:
        kv = ", ".join(f"{k}={v!r}" for k, v in self.params.items())
        sep = ", " if kv else ""
        return f"{type(self).__name__}({self.name!r}{sep}{kv})"


class WorkloadSpec(_RegistrySpec):
    """Picklable workload factory: ``WorkloadSpec("cdn", slab_pages=...)()``."""

    _registry = _WORKLOAD_BUILDERS
    _kind = "workload"


class PolicySpec(_RegistrySpec):
    """Picklable policy factory: ``PolicySpec("freqtier", seed=1)()``."""

    _registry = _POLICY_BUILDERS
    _kind = "policy"


# --------------------------------------------------------------------------
# Cell specs
# --------------------------------------------------------------------------


@dataclass
class CellSpec:
    """One experiment cell, ready to run in any process.

    ``policy=None`` marks the all-local baseline cell (run on an
    all-DRAM machine via :func:`repro.core.runner.run_all_local`).
    ``label`` is carried through for callers that key results by name.
    ``trace_path`` (optional) makes the cell write a JSONL event trace
    there while it runs -- one file per cell, created inside whichever
    process executes it; cache-served cells record one ``cache_hit``
    event instead.  The trace destination is observability-only and
    deliberately excluded from the cache fingerprint.

    ``checkpoint_dir`` / ``checkpoint_every`` (optional) make the cell
    write rotated state snapshots there every N batches and *resume
    from* that directory's newest valid snapshot at the start of every
    attempt -- so a crashed or timed-out cell retries from its last
    checkpoint instead of from scratch.  Like ``trace_path``, these are
    execution-mechanics fields excluded from the cache fingerprint.
    """

    workload: Callable[[], Any]
    policy: Callable[[], Any] | None
    config: ExperimentConfig
    label: str = ""
    trace_path: str | None = None
    #: Optional fault plan injected into the cell's run.  Part of the
    #: cache fingerprint *only when active*, so fault-free grids keep
    #: their historical fingerprints (and cache entries).
    faults: FaultPlan | None = None
    #: Per-cell checkpoint directory (written to and resumed from).
    checkpoint_dir: str | None = None
    #: Snapshot every N batches (0 = checkpointing off).
    checkpoint_every: int = 0

    def fingerprint(self) -> str | None:
        """Content-address of this cell, or None if not addressable.

        Only cells whose factories are :class:`WorkloadSpec` /
        :class:`PolicySpec` (and whose params are JSON-serializable)
        can be cached; closure factories return None and always run.
        """
        if not isinstance(self.workload, _RegistrySpec):
            return None
        if self.policy is None:
            policy_part: Any = "all_local"
        elif isinstance(self.policy, _RegistrySpec):
            policy_part = self.policy.spec_dict()
        else:
            return None
        key = {
            "workload": self.workload.spec_dict(),
            "policy": policy_part,
            "config": config_to_dict(self.config),
        }
        if self.faults is not None and self.faults.active:
            key["faults"] = self.faults.to_dict()
        try:
            return cell_fingerprint(key)
        except (TypeError, ValueError):
            return None


@dataclass
class FailedCell:
    """Structured stand-in result for a cell that failed permanently.

    Returned (in the result list, at the cell's position) only under
    ``keep_going=True``; without it the executor re-raises the cell's
    last error instead.  Never written to the result cache.
    """

    label: str
    error: str
    attempts: int

    #: Class marker so callers can cheaply split results:
    #: ``[r for r in results if not getattr(r, "failed", False)]``.
    failed = True


def run_cell(spec: CellSpec) -> ExperimentResult:
    """Execute one cell (the process-pool work function)."""
    # Imported here, not at module top, so the registry imports above
    # cannot cycle through repro.core.runner.
    from repro.core.runner import run_all_local, run_experiment

    with trace_to(spec.trace_path) as tracer:
        if spec.policy is None:
            return run_all_local(
                spec.workload, spec.config, tracer=tracer, faults=spec.faults
            )
        return run_experiment(
            spec.workload,
            spec.policy,
            spec.config,
            tracer=tracer,
            faults=spec.faults,
            checkpoint_dir=spec.checkpoint_dir,
            checkpoint_every_batches=spec.checkpoint_every,
            # Resuming from the cell's own directory is what turns a
            # crash-retry into a continue-from-last-checkpoint: the
            # first attempt finds it empty and starts fresh.
            resume_from=spec.checkpoint_dir,
        )


# --------------------------------------------------------------------------
# The executor
# --------------------------------------------------------------------------


def resolve_jobs(jobs: int) -> int:
    """Map the ``--jobs`` convention onto a worker count (>= 1)."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs > 0:
        return jobs
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


@dataclass
class ExecutorStats:
    """Where each submitted cell's result came from, and what it cost."""

    #: Cells served from the result cache (``cache``, or
    #: ``<checkpoint_root>/results`` without one) instead of executed.
    cache_hits: int = 0
    executed: int = 0
    cached_results: int = 0  # results newly written to the cache
    #: Charged failed attempts across all cells (a resubmission after an
    #: unattributable pool break or a cancelled-before-start timeout is
    #: *not* charged and not counted here).
    retries: int = 0
    #: Cells that exhausted their retry budget.
    failures: int = 0
    #: Cells whose attempt exceeded ``cell_timeout`` while running.
    timeouts: int = 0
    #: Times the process pool died (BrokenProcessPool) or was killed
    #: (running-cell timeout) and was rebuilt.
    pool_rebuilds: int = 0
    #: Shared stream recording files published for this grid.
    shm_segments: int = 0
    #: Bytes of access-stream data served zero-copy from those files.
    shm_bytes: int = 0
    #: Workload groups that fell back to per-cell generation after a
    #: publish attempt failed (an unwritable temp directory, a stream
    #: too large for the host's memory budget, etc.).
    shm_fallbacks: int = 0


class ParallelExecutor:
    """Fans experiment cells across a process pool, with result caching.

    Parameters
    ----------
    jobs:
        ``0`` = one worker per CPU, ``1`` = inline serial execution
        (no pool, works with closure factories), ``N`` = pool of N.
    cache:
        A :class:`~repro.core.cache.ResultCache`, a directory path to
        open one at, or None to disable caching (unless
        ``checkpoint_root`` is given).
    cell_timeout:
        Wall-clock seconds one attempt of one cell may run before it
        is failed (and its worker killed).  None = no limit.  Enforced
        on the pool path only; inline (``jobs=1``) execution cannot be
        preempted.
    retries:
        Charged failed attempts allowed per cell beyond the first
        (``retries=1`` means: try, and on failure try once more).
        Unattributable failures -- a pool break while several cells
        were in flight, a timeout cancelled before the cell started --
        are resubmitted without charge.
    keep_going:
        On a cell's permanent failure, record a :class:`FailedCell` at
        its position and keep running the rest of the grid, instead of
        raising (the default) and losing the in-flight results.
    checkpoint_root:
        Directory for durable run state.  Every submitted cell without
        an explicit ``checkpoint_dir`` gets its own subdirectory under
        ``<root>/cells/`` (named by its fingerprint when addressable,
        else by label/position), so crash/timeout retries resume from
        the cell's last checkpoint.  Without a ``cache``, finished
        cells are stored in ``ResultCache(<root>/results)``, so an
        interrupted re-invocation of the same grid skips the cells
        that already completed.  All-local baseline cells
        (``policy=None``) do not checkpoint (they are cheap) but are
        stored like any other.
    checkpoint_every:
        Default snapshot cadence (batches) applied to cells that get a
        checkpoint directory from ``checkpoint_root`` and do not pin
        their own ``checkpoint_every``.
    share_streams:
        Zero-copy access-stream sharing (default on).  When several
        pool-bound cells run the same workload spec under the same
        batch budget, the parent generates the stream once, saves it
        as a recording file in ``/dev/shm``, and the workers replay
        read-only views of it instead of regenerating it (see
        :mod:`repro.core.shm`).  Results are bit-identical either
        way.  Ineligible cells (closure factories, unbounded budgets,
        ``max_accesses`` limits, checkpointing) generate their own
        streams; an unwritable temp directory and streams too large for
        half the host's available memory fall back to per-cell
        generation silently (``stats.shm_fallbacks``).
        The files are deleted when the grid finishes (plus an
        ``atexit`` net).

    Determinism: each cell builds fresh workload/policy instances from
    its own seeds, so ``run()`` returns bit-identical results whatever
    the worker count or completion order.

    Crash recovery: a dead worker (segfault, ``os._exit``) breaks the
    whole ``ProcessPoolExecutor`` and cannot be attributed to one of
    the in-flight cells.  The executor rebuilds the pool and switches
    to *isolation mode* -- one cell in flight at a time -- where the
    next crash attributes unambiguously; innocent cells complete and
    only the crasher burns retry budget.
    """

    def __init__(
        self,
        jobs: int = 0,
        cache: ResultCache | str | os.PathLike | None = None,
        cell_timeout: float | None = None,
        retries: int = 0,
        keep_going: bool = False,
        checkpoint_root: str | os.PathLike | None = None,
        checkpoint_every: int = 25,
        share_streams: bool = True,
    ):
        self.jobs = resolve_jobs(jobs)
        if cache is None and checkpoint_root is not None:
            cache = Path(checkpoint_root) / "results"
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError(f"cell_timeout must be > 0, got {cell_timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.cache = cache
        self.cell_timeout = cell_timeout
        self.retries = int(retries)
        self.keep_going = bool(keep_going)
        self.checkpoint_root = (
            Path(checkpoint_root) if checkpoint_root is not None else None
        )
        self.checkpoint_every = int(checkpoint_every)
        self.share_streams = bool(share_streams)
        self.stats = ExecutorStats()

    # -- execution -----------------------------------------------------

    def run(self, specs: Sequence[CellSpec]) -> list[ExperimentResult]:
        """Run all cells; results align with ``specs`` by position.

        Cache hits never execute; misses run inline (``jobs=1``) or on
        the pool, then populate the cache.
        """
        specs = [
            self._prepare_spec(spec, i) for i, spec in enumerate(specs)
        ]
        results: list[ExperimentResult | None] = [None] * len(specs)
        fingerprints: list[str | None] = [None] * len(specs)

        pending: list[int] = []
        for i, spec in enumerate(specs):
            if self.cache is not None:
                fingerprints[i] = spec.fingerprint()
            fp = fingerprints[i]
            if fp is not None:
                hit = self.cache.get(fp)
                if hit is not None:
                    results[i] = hit
                    self.stats.cache_hits += 1
                    if spec.trace_path is not None:
                        self._record_cache_hit(spec, fp)
                    continue
            pending.append(i)

        if pending:
            computed = self._execute([specs[i] for i in pending])
            for i, res in zip(pending, computed):
                results[i] = res
                self.stats.executed += 1
                if isinstance(res, FailedCell):
                    continue  # never cache failures
                if fingerprints[i] is not None:
                    self.cache.put(fingerprints[i], res)
                    self.stats.cached_results += 1
        return results  # type: ignore[return-value]

    _LABEL_SAFE = re.compile(r"[^A-Za-z0-9._-]+")

    def _prepare_spec(self, spec: CellSpec, index: int) -> CellSpec:
        """Assign a per-cell checkpoint directory under the root.

        Fingerprint-named directories make resume survive process
        *re-invocation* (the crashed sweep rerun finds the same dir);
        non-addressable cells fall back to label/position names, which
        still cover crash-retries within one invocation.  All-local
        baseline cells never checkpoint.
        """
        if (
            self.checkpoint_root is None
            or spec.checkpoint_dir is not None
            or spec.policy is None
        ):
            return spec
        cell_id = spec.fingerprint()
        if cell_id is None:
            safe = self._LABEL_SAFE.sub("-", spec.label).strip("-")
            cell_id = f"{safe or 'cell'}-{index}"
        return replace(
            spec,
            checkpoint_dir=str(self.checkpoint_root / "cells" / cell_id),
            checkpoint_every=spec.checkpoint_every or self.checkpoint_every,
        )

    def run_one(self, spec: CellSpec) -> ExperimentResult:
        return self.run([spec])[0]

    @staticmethod
    def _record_cache_hit(spec: CellSpec, fingerprint: str) -> None:
        """A cache-served cell still leaves a (one-event) trace file."""
        with trace_to(spec.trace_path) as tracer:
            tracer.emit(
                "cache_hit",
                t_ns=0.0,
                label=spec.label,
                fingerprint=fingerprint,
            )

    def _execute(self, specs: list[CellSpec]) -> list[ExperimentResult]:
        if self.jobs == 1 or len(specs) == 1:
            return [self._run_serial(spec) for spec in specs]
        self._require_picklable(specs)
        specs, handles = self._substitute_shared(specs)
        try:
            return self._run_pool(specs)
        finally:
            for handle in handles:
                handle.unlink()

    # -- zero-copy stream sharing --------------------------------------

    @staticmethod
    def _stream_key(spec: CellSpec) -> tuple[str, int] | None:
        """Sharing key of a cell, or None when ineligible.

        Eligible cells have a content-addressable workload spec and a
        bounded batch budget (the recording length); a ``max_accesses``
        limit makes the effective batch count placement-dependent, so
        such cells keep per-cell generation.  Cells that checkpoint
        generate their own stream too: their snapshots carry the live
        workload's position, which a replay does not have.
        """
        if spec.checkpoint_dir is not None:
            return None
        if not isinstance(spec.workload, _RegistrySpec):
            return None
        config = spec.config
        if not config.max_batches or config.max_batches <= 0:
            return None
        if config.max_accesses is not None:
            return None
        try:
            fp = cell_fingerprint({"workload": spec.workload.spec_dict()})
        except (TypeError, ValueError):
            return None
        return fp, int(config.max_batches)

    def _substitute_shared(
        self, specs: list[CellSpec]
    ) -> tuple[list[CellSpec], list[Any]]:
        """Publish each multi-cell workload group's stream once.

        Returns the (possibly substituted) spec list plus the owned
        stream handles the caller must unlink after the grid runs.
        Single-cell groups gain nothing and keep per-cell generation;
        any publish failure falls back silently.
        """
        if not self.share_streams:
            return specs, []
        groups: dict[tuple[str, int], list[int]] = {}
        for idx, spec in enumerate(specs):
            key = self._stream_key(spec)
            if key is not None:
                groups.setdefault(key, []).append(idx)
        handles: list[Any] = []
        out = list(specs)
        for (_, max_batches), idxs in groups.items():
            if len(idxs) < 2:
                continue
            from repro.core.shm import SharedStreamFactory, publish_stream

            first = specs[idxs[0]]
            try:
                handle = publish_stream(first.workload, max_batches)
            except Exception:
                self.stats.shm_fallbacks += 1
                continue
            handles.append(handle)
            self.stats.shm_segments += 1
            self.stats.shm_bytes += handle.nbytes
            factory = SharedStreamFactory(first.workload, handle)
            for i in idxs:
                out[i] = replace(specs[i], workload=factory)
        return out, handles

    # -- inline path ---------------------------------------------------

    def _run_serial(self, spec: CellSpec):
        """One cell, this process, with the same retry/keep_going rules.

        ``cell_timeout`` is not enforceable here (nothing can preempt
        the running cell) and ``crash_hard`` plans kill this process --
        both need ``jobs > 1``.
        """
        charged: list[int] = [0]
        results: list[Any] = [None]
        while True:
            try:
                return run_cell(spec)
            except Exception as exc:
                if self._charge_failure(spec, 0, exc, charged, results):
                    return results[0]

    # -- pool path -----------------------------------------------------

    def _run_pool(self, specs: list[CellSpec]):
        """Per-cell futures with timeout, retry, and crash recovery."""
        workers = min(self.jobs, len(specs))
        results: list[Any] = [None] * len(specs)
        charged: list[int] = [0] * len(specs)  # charged failed attempts
        todo = list(range(len(specs)))
        isolation = False
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while todo:
                if isolation:
                    wave, todo = todo[:1], todo[1:]
                else:
                    wave, todo = todo, []
                resubmit, rebuild = self._run_wave(
                    pool, specs, wave, results, charged, isolation
                )
                todo = resubmit + todo
                if rebuild:
                    self._kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=workers)
                    self.stats.pool_rebuilds += 1
                    isolation = True
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return results

    def _run_wave(
        self,
        pool: ProcessPoolExecutor,
        specs: list[CellSpec],
        wave: list[int],
        results: list[Any],
        charged: list[int],
        isolation: bool,
    ) -> tuple[list[int], bool]:
        """Submit ``wave`` and collect it; returns (resubmit, rebuild).

        Waits on futures in submission order with each cell's deadline
        measured from its submission.  Once the pool must die (a break,
        or a running cell overshooting its timeout), the remaining
        futures are harvested if already done and resubmitted uncharged
        otherwise -- their fate on the dying pool proves nothing about
        them.
        """
        futures = []
        deadlines = []
        for i in wave:
            futures.append(pool.submit(run_cell, specs[i]))
            deadlines.append(
                None
                if self.cell_timeout is None
                else time.monotonic() + self.cell_timeout
            )
        resubmit: list[int] = []
        rebuild = False
        for pos, i in enumerate(wave):
            fut = futures[pos]
            if rebuild:
                # Pool is going down; salvage what already finished.
                if fut.done() and not fut.cancelled() and fut.exception() is None:
                    results[i] = fut.result()
                else:
                    fut.cancel()
                    resubmit.append(i)
                continue
            try:
                if deadlines[pos] is None:
                    results[i] = fut.result()
                else:
                    remaining = deadlines[pos] - time.monotonic()
                    results[i] = fut.result(timeout=max(remaining, 0.0))
            except FutureTimeout:
                if fut.cancel():
                    # Never started (queued behind slower cells): not
                    # the cell's fault, resubmit without charge.
                    resubmit.append(i)
                    continue
                # Genuinely running overtime: charge it and kill the
                # pool (the worker won't give the cell back).
                self.stats.timeouts += 1
                timeout_exc = TimeoutError(
                    f"cell {specs[i].label or i!r} exceeded "
                    f"cell_timeout={self.cell_timeout}s"
                )
                if not self._charge_failure(specs[i], i, timeout_exc, charged, results):
                    resubmit.append(i)
                rebuild = True
            except BrokenProcessPool as exc:
                if isolation:
                    # Exactly one cell was in flight: the crash is its.
                    if not self._charge_failure(specs[i], i, exc, charged, results):
                        resubmit.append(i)
                else:
                    # Cannot tell which in-flight cell killed the
                    # worker -- charge nobody, isolate, re-run.
                    resubmit.append(i)
                rebuild = True
            except Exception as exc:
                # An ordinary exception pickled back from the worker
                # attributes unambiguously, pool intact.
                if not self._charge_failure(specs[i], i, exc, charged, results):
                    resubmit.append(i)
        return resubmit, rebuild

    def _charge_failure(
        self,
        spec: CellSpec,
        i: int,
        exc: BaseException,
        charged: list[int],
        results: list[Any],
    ) -> bool:
        """Charge one failed attempt; True if the cell is now final.

        Finality means ``results[i]`` is set (a :class:`FailedCell`) or
        the error was raised; False means the caller should resubmit.
        """
        charged[i] += 1
        if charged[i] <= self.retries:
            self.stats.retries += 1
            return False
        self.stats.failures += 1
        if self.keep_going:
            results[i] = FailedCell(
                label=spec.label, error=repr(exc), attempts=charged[i]
            )
            return True
        raise exc

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Tear a pool down without waiting on a wedged worker."""
        processes = list(getattr(pool, "_processes", {}).values())
        for proc in processes:
            try:
                proc.terminate()
            except Exception:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _require_picklable(specs: list[CellSpec]) -> None:
        """Fail fast, with guidance, before feeding a pool bad specs."""
        for spec in specs:
            for role, factory in (("workload", spec.workload), ("policy", spec.policy)):
                if factory is None or isinstance(factory, _RegistrySpec):
                    continue
                try:
                    pickle.dumps(factory)
                except Exception as exc:
                    raise ValueError(
                        f"cell {spec.label or spec!r}: {role} factory "
                        f"{factory!r} is not picklable, so it cannot cross "
                        "process boundaries. Use WorkloadSpec/PolicySpec "
                        "(or a module-level function), or run with jobs=1."
                    ) from exc


def executor_from_env(
    jobs: int | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> ParallelExecutor:
    """Executor honouring ``REPRO_JOBS`` / ``REPRO_CACHE_DIR``.

    Explicit arguments win over the environment; the defaults (jobs=1,
    no cache) preserve historical serial behaviour for callers -- the
    benchmark harness routes through this so ``REPRO_JOBS=4 pytest
    benchmarks/`` parallelizes every grid without code changes.
    """
    if jobs is None:
        jobs = int(os.environ.get("REPRO_JOBS", "1"))
    if cache_dir is None:
        cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    return ParallelExecutor(jobs=jobs, cache=cache_dir)
