"""The benchmark's three workloads and the output checks on each.

- ``cdn_grid``: a paper Table II grid (CacheLib CDN at bench scale;
  FreqTier, AutoNUMA, TPP, HeMem and AllLocal at 1:32, 1:16 and 1:8)
  through ``ParallelExecutor(jobs=min(2, cpus), share_streams=True)``,
  the path ``repro compare --jobs`` takes.  Batches are run-compressed,
  so placement counts, sampling and hint-fault scans take the
  compressed kernels; the stream is generated once into shared memory.
- ``gap_graph``: a paper Table IV row (GAP connected components,
  scale-18 Kronecker graph, 1:32, same line-up) run inline through
  ``run_experiment`` / ``run_all_local``.  Batches are explicit page
  ids, so the expanded engine path and the GAP generator dominate;
  graph construction makes set-up heavy.  No executor, shared memory
  or daemon code runs.  CC rather than BFS: every CC batch is one full
  edge scan, while BFS batches are frontier levels whose sizes, and so
  whose latency percentiles, change with the seed's source vertices.
- ``serve_chaos``: a ``TieringDaemon`` running FreqTier for a CDN and a
  Zipf tenant, offered more batches than a tick serves (shed-oldest),
  checkpointing every few ticks, with one injected crash that forces a
  watchdog restore and prefix replay.

Both grids end each pass with a restart probe: the headline FreqTier
cell is run to a checkpoint and an injected crash, then resumed; the
host time from the resume call to its first new batch is the grid's
``restart_s`` and the resumed result must equal the grid's cell.

Every spec and config takes the benchmark's ``--seed``; nothing checked
here depends on it.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import ExperimentConfig, PolicySpec, WorkloadSpec
from repro.core import runner, shm
from repro.core.parallel import CellSpec, FailedCell, ParallelExecutor
from repro.faults import FaultPlan
from repro.faults.injector import InjectedCrash
from repro.serve import ServeConfig, TieringDaemon, VirtualTimeDriver, aggregate_depth

from perfbench.clock import StepClock
from perfbench.stats import digest, served_frac

POLICIES = ("freqtier", "autonuma", "tpp", "hemem")
HEADLINE = "1:32"


@dataclass
class PassResult:
    """What one pass of a workload measured and checked."""

    #: host seconds of every call into the simulator in the pass
    section_s: float
    setup_s: float
    #: batches serviced, one latency sample each (grids), or driver
    #: steps (serve)
    batches: int
    #: latency samples: batch service times (grids), driver steps (serve)
    ticks_ns: list[int]
    #: restart samples: probe resumes (grids) or the crashed driver step
    restarts_s: list[float]
    hit_ratio: float
    #: None when the pass ran no AllLocal comparison
    rel_perf: float | None
    attempted: int
    failed: int
    served_frac: float
    digest: str
    errors: list[str] = field(default_factory=list)
    #: per-layer counts only the pass can see (queue and shm accounting)
    extra: dict[str, float] = field(default_factory=dict)


def reap_children(timeout_s: float = 30.0) -> None:
    """Wait until every worker process this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("worker processes did not exit")
        time.sleep(0.02)


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


class Grid:
    """A policy x capacity-ratio grid plus its restart probe."""

    def __init__(
        self,
        name: str,
        workload: WorkloadSpec,
        ratios: list[tuple[str, float]],
        max_batches: int | None,
        rel_key: str,
        crash_after: int,
        checkpoint_every: int,
        resumes: int,
        tail_q: float,
        seed: int,
        tmp: Path,
    ):
        self.name = name
        self.workload = workload
        self.ratios = ratios
        self.max_batches = max_batches
        self.rel_key = rel_key
        self.crash_after = crash_after
        self.checkpoint_every = checkpoint_every
        #: resumes per probe, each from the same checkpoint
        self.resumes = resumes
        #: reported tail quantile of the step latencies
        self.tail_q = tail_q
        self.seed = seed
        self.tmp = tmp

    def config(self, label: str, frac: float) -> ExperimentConfig:
        return ExperimentConfig(
            local_fraction=frac,
            ratio_label=label,
            max_batches=self.max_batches,
            seed=self.seed,
        )

    def cells(self, workload: Any) -> list[CellSpec]:
        cells = []
        for label, frac in self.ratios:
            config = self.config(label, frac)
            cells.append(CellSpec(workload, None, config, label=f"{label}/alllocal"))
            for policy in POLICIES:
                cells.append(
                    CellSpec(
                        workload,
                        PolicySpec(policy, seed=self.seed),
                        config,
                        label=f"{label}/{policy}",
                    )
                )
        return cells

    # -- running -----------------------------------------------------------

    def _run_cells(self, clock: StepClock, pooled: bool) -> tuple[list, dict]:
        """Run the grid; returns ``[(result, (setup_ns, ticks_ns))]`` and
        the shared-stream stats."""
        stats = {"parallel.shm_mb": 0.0, "parallel.shm_fallbacks": 0.0}
        if self.name == "gap_graph":
            outs = []
            for cell in self.cells(self.workload):
                clock.begin_cell()
                if cell.policy is None:
                    result = runner.run_all_local(cell.workload, cell.config)
                else:
                    result = runner.run_experiment(cell.workload, cell.policy, cell.config)
                outs.append((result, clock.take()))
            return outs, stats
        if pooled:
            executor = ParallelExecutor(
                jobs=min(2, _cpus()), share_streams=True, keep_going=True
            )
            outs = executor.run(self.cells(self.workload))
            stats["parallel.shm_mb"] = executor.stats.shm_bytes / 1e6
            stats["parallel.shm_fallbacks"] = float(executor.stats.shm_fallbacks)
            return outs, stats
        # Inline replay of one shared stream: the pooled path's work,
        # in this process, so the traced run can see every layer.
        handle = shm.publish_stream(self.workload, self.max_batches)
        try:
            factory = shm.SharedStreamFactory(self.workload, handle)
            executor = ParallelExecutor(jobs=1, keep_going=True)
            outs = executor.run(self.cells(factory))
        finally:
            handle.unlink()
        stats["parallel.shm_mb"] = handle.nbytes / 1e6
        return outs, stats

    def _probe(self, clock: StepClock, errors: list[str]) -> tuple[list, list[float]]:
        """Crash the headline FreqTier cell, then resume it ``resumes``
        times from the same checkpoint; returns the resumed results and
        their restart times."""
        frac = dict(self.ratios)[HEADLINE]
        config = self.config(HEADLINE, frac)
        policy = PolicySpec("freqtier", seed=self.seed)
        plan = FaultPlan(seed=self.seed, crash_after_batches=self.crash_after)
        directory = tempfile.mkdtemp(prefix="probe-", dir=self.tmp)
        try:
            runner.run_experiment(
                self.workload, policy, config, faults=plan,
                checkpoint_dir=directory,
                checkpoint_every_batches=self.checkpoint_every,
            )
            errors.append("restart probe: the injected crash did not fire")
        except InjectedCrash:
            pass
        results, restarts = [], []
        for _ in range(self.resumes):
            clock.take()
            clock.begin_cell()
            results.append(runner.run_experiment(
                self.workload, policy, config, faults=plan, resume_from=directory
            ))
            setup_ns, _ = clock.take()
            restarts.append(setup_ns[0] / 1e9)
        return results, restarts

    def run_pass(
        self, clock: StepClock, pooled: bool = True, compare: bool = True
    ) -> PassResult:
        """One grid pass and its restart probe.

        ``pooled`` runs the grid on the executor's pool (else inline);
        the AllLocal cells are part of every grid, so ``compare`` has no
        effect here.
        """
        clock.take()
        clock.publish_ns.clear()
        start = time.perf_counter()
        outs, shm_stats = self._run_cells(clock, pooled)
        reap_children()
        errors: list[str] = []
        resumed, restarts = self._probe(clock, errors)
        section = time.perf_counter() - start

        labels = [cell.label for cell in self.cells(self.workload)]
        failed = sum(isinstance(out, FailedCell) for out in outs)
        if failed:
            errors.append(f"{failed} FailedCell(s)")
        done = {
            label: out for label, out in zip(labels, outs)
            if not isinstance(out, FailedCell)
        }
        results = {label: out[0] for label, out in done.items()}
        setups = [ns for _, (setup_ns, _) in done.values() for ns in setup_ns]
        ticks = [ns for _, (_, ticks_ns) in done.values() for ns in ticks_ns]
        if len(setups) != len(done):
            errors.append("a cell serviced no batch")
        errors.extend(self._check(results))
        head = results.get(f"{HEADLINE}/freqtier")
        base = results.get(f"{HEADLINE}/alllocal")
        if head is not None and any(
            digest(r.to_dict()) != digest(head.to_dict()) for r in resumed
        ):
            errors.append("restart probe: resumed result differs from the grid's cell")
        rel = head.relative_to(base)[self.rel_key] if head and base else None
        return PassResult(
            section_s=section,
            setup_s=(sum(clock.publish_ns) + sum(setups)) / 1e9,
            batches=len(ticks),
            ticks_ns=ticks,
            restarts_s=restarts,
            hit_ratio=head.steady_hit_ratio if head else 0.0,
            rel_perf=rel,
            attempted=len(labels),
            failed=failed,
            served_frac=served_frac(len(labels), failed),
            digest=digest(sorted((k, r.to_dict()) for k, r in results.items())),
            errors=errors,
            extra=shm_stats,
        )

    @staticmethod
    def _check(results: dict[str, Any]) -> list[str]:
        errors = []
        for label, r in results.items():
            for ratio in (r.overall_hit_ratio, r.steady_hit_ratio):
                if not 0.0 <= ratio <= 1.0:
                    errors.append(f"{label}: hit ratio {ratio} outside [0, 1]")
            if label.endswith("/alllocal") and (
                r.overall_hit_ratio != 1.0 or r.steady_hit_ratio != 1.0
            ):
                errors.append(f"{label}: AllLocal hit ratio is not 1.0")
        totals = {r.total_accesses for r in results.values()}
        if len(totals) != 1:
            errors.append(f"cells serviced different access totals: {sorted(totals)}")
        return errors


class ServeChaos:
    """A crashing two-tenant FreqTier daemon under overload."""

    #: Reported tail quantile of the driver-step latencies.
    tail_q = 0.99

    TENANT_PAGES = 4096
    ACCESSES_PER_BATCH = 2000
    #: Batches each tenant offers per round; a tick serves at most
    #: MAX_PER_TICK of the 2 * ARRIVALS offered, so queues fill and shed.
    ARRIVALS = 3
    MAX_PER_TICK = 5
    OFFERS = 3000
    CHECKPOINT_EVERY_TICKS = 25
    CRASH_AFTER_BATCHES = 2500

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp

    def _daemon(self, policy: str, crash: bool) -> tuple[TieringDaemon, VirtualTimeDriver]:
        seed = self.seed
        tenants = {
            "cdn": WorkloadSpec(
                "cdn", slab_pages=self.TENANT_PAGES,
                ops_per_batch=self.ACCESSES_PER_BATCH, seed=seed,
            ),
            "zipf": WorkloadSpec(
                "zipf", num_pages=self.TENANT_PAGES,
                accesses_per_batch=self.ACCESSES_PER_BATCH, seed=seed,
            ),
        }
        daemon = TieringDaemon(
            tenants,
            PolicySpec(policy, seed=seed),
            ExperimentConfig(
                # The AllLocal baseline gets local DRAM for every page.
                local_fraction=0.06 if policy != "alllocal" else 1.0,
                ratio_label=HEADLINE,
                max_batches=None,
                seed=seed,
            ),
            serve=ServeConfig(
                queue_capacity=16,
                backpressure="shed-oldest",
                max_batches_per_tick=self.MAX_PER_TICK,
                checkpoint_every_ticks=self.CHECKPOINT_EVERY_TICKS if crash else 0,
                max_restarts=3,
            ),
            faults=(
                FaultPlan(seed=seed, crash_after_batches=self.CRASH_AFTER_BATCHES)
                if crash else None
            ),
            checkpoint_dir=(
                tempfile.mkdtemp(prefix="serve-", dir=self.tmp) if crash else None
            ),
        )
        return daemon, VirtualTimeDriver(daemon, arrivals=self.ARRIVALS, max_offers=self.OFFERS)

    def _drive(self, daemon: TieringDaemon, driver: VirtualTimeDriver):
        """Step to drained, timing every driver step."""
        ticks: list[int] = []
        crashed: list[int] = []
        max_rounds = 4 * self.OFFERS
        while not (driver.streams_exhausted and aggregate_depth(daemon.queues).depth == 0):
            if len(ticks) >= max_rounds:
                raise RuntimeError(f"daemon not drained after {max_rounds} rounds")
            start = time.perf_counter_ns()
            report = driver.step()
            elapsed = time.perf_counter_ns() - start
            ticks.append(elapsed)
            if report is None:
                crashed.append(elapsed)
        daemon.drain()
        return ticks, crashed, daemon.finalize(warmup_fraction=0.25)

    def baseline(self) -> tuple[Any, dict[str, int]]:
        """The same schedule under AllLocal, without crash or checkpoints:
        its result and the batches served per tenant."""
        daemon, driver = self._daemon("alllocal", crash=False)
        _, _, result = self._drive(daemon, driver)
        return result, self._served(daemon)

    @staticmethod
    def _served(daemon: TieringDaemon) -> dict[str, int]:
        return {t: q.counters.served for t, q in daemon.queues.items()}

    def run_pass(
        self, clock: StepClock, pooled: bool = True, compare: bool = True
    ) -> PassResult:
        """One daemon run to drained; ``compare`` adds the AllLocal twin
        (for ``rel_perf`` and its checks).  ``pooled`` has no effect."""
        start = time.perf_counter()
        daemon, driver = self._daemon("freqtier", crash=True)
        setup = time.perf_counter() - start
        ticks, crashed, result = self._drive(daemon, driver)
        section = time.perf_counter() - start
        clock.take()  # serve's latency samples are driver steps, not batches

        errors = []
        slo = daemon.slo_summary()
        if driver.restarts_seen != 1 or slo["restarts"] != 1:
            errors.append(
                f"expected one restart, saw {driver.restarts_seen} "
                f"(daemon counts {slo['restarts']})"
            )
        if aggregate_depth(daemon.queues).depth != 0:
            errors.append("queues not empty after drain")
        lost = 0
        offered = shed = served = reoffered = 0
        for tenant, queue in daemon.queues.items():
            c = queue.counters
            disposed = c.served + c.shed + c.rejected
            if disposed != self.OFFERS:
                errors.append(
                    f"{tenant}: served+shed+rejected={disposed}, "
                    f"{self.OFFERS} distinct batches offered"
                )
                lost += abs(self.OFFERS - disposed)
            offered += self.OFFERS
            served += c.served
            shed += c.shed + c.rejected
            reoffered += c.offered - self.OFFERS
        for ratio in (result.overall_hit_ratio, result.steady_hit_ratio):
            if not 0.0 <= ratio <= 1.0:
                errors.append(f"hit ratio {ratio} outside [0, 1]")
        rel = None
        if compare:
            base, base_served = self.baseline()
            if base.overall_hit_ratio != 1.0 or base.steady_hit_ratio != 1.0:
                errors.append("AllLocal daemon hit ratio is not 1.0")
            if base_served != self._served(daemon):
                errors.append("AllLocal daemon served other batches than FreqTier")
            rel = result.relative_to(base)["throughput"]
        if len(crashed) != 1:
            errors.append(f"{len(crashed)} crashed driver steps, expected 1")
        # Known accounting defects, reported so a fix shows as a change:
        # ``offered`` counts backlog re-offered after the restart, and the
        # SLO histograms keep samples from the rolled-back ticks.
        slo_extra = (
            slo["enqueue_to_service_ns_count"] - served
            + slo["tick_overhead_ns_count"] - slo["ticks"]
        )
        return PassResult(
            section_s=section,
            setup_s=setup,
            batches=served,
            ticks_ns=ticks,
            restarts_s=[ns / 1e9 for ns in crashed],
            hit_ratio=result.steady_hit_ratio,
            rel_perf=rel,
            attempted=offered,
            failed=lost,
            served_frac=served / offered,
            digest=digest({"result": result.to_dict(), "slo": slo}),
            errors=errors,
            extra={
                "serve.served": float(served),
                "serve.shed": float(shed),
                "serve.reoffered": float(reoffered),
                "serve.slo_extra_samples": float(slo_extra),
            },
        )


def make(name: str, seed: int, tmp: Path) -> Grid | ServeChaos:
    """Build the named workload for ``seed``; scratch files go in ``tmp``."""
    if name == "cdn_grid":
        return Grid(
            name,
            WorkloadSpec("cdn", slab_pages=16_384, ops_per_batch=10_000, seed=seed),
            [("1:32", 0.06), ("1:16", 0.12), ("1:8", 0.24)],
            max_batches=400,
            rel_key="throughput",
            crash_after=201,
            checkpoint_every=100,
            resumes=3,
            # p99 of a pass's 6,000 batches swings with the host; p90
            # keeps 600 samples beyond it.
            tail_q=0.9,
            seed=seed,
            tmp=tmp,
        )
    if name == "gap_graph":
        return Grid(
            name,
            WorkloadSpec("gap", kernel="cc", scale=18, num_trials=2, seed=seed),
            [("1:32", 0.05)],
            max_batches=None,
            rel_key="label_time",
            crash_after=5,
            checkpoint_every=2,
            resumes=2,
            # 40-50 batches a pass: p90 keeps ten samples beyond it.
            tail_q=0.9,
            seed=seed,
            tmp=tmp,
        )
    if name == "serve_chaos":
        return ServeChaos(seed, tmp)
    raise ValueError(f"unknown workload {name!r}")

