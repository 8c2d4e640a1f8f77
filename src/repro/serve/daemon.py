"""The online tiering daemon: engine + policy behind tenant queues.

:class:`TieringDaemon` wraps a :class:`~repro.core.engine.SimulationEngine`
in a long-lived serving loop.  Clients :meth:`~TieringDaemon.submit`
access batches into bounded per-tenant queues; each
:meth:`~TieringDaemon.tick` drains up to ``max_batches_per_tick`` of
them round-robin through :meth:`~repro.core.engine.SimulationEngine.step`,
charging policy overhead against a per-tick deadline budget and
consulting the degradation ladder for how much policy work the current
load affords.  A watchdog catches crashed ticks and restores the whole
stack -- engine, policy, ladder, queue accounting -- from the newest
durable checkpoint this daemon wrote.

Everything observable is virtual-time: enqueue-to-service latency is
measured on the engine clock, so the daemon's SLO quantiles (p50/p99/
p999) are bit-reproducible.  The
:class:`~repro.serve.driver.VirtualTimeDriver` is the one loop that
drives a daemon: it offers each tenant's batches, ticks, and drains.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

from repro.core.config import ExperimentConfig
from repro.core.engine import SimulationEngine
from repro.core.metrics import ExperimentResult
from repro.core.runner import build_injector, build_machine
from repro.faults import FaultPlan
from repro.memsim.machine import Machine
from repro.obs import NULL_TRACER, Tracer
from repro.obs.registry import HistogramRegistry
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.state import CheckpointManager, Stateful
from repro.workloads.spec import Workload

from repro.serve.budget import DegradationLadder, TickBudget
from repro.serve.config import DEGRADATION_MODES, ServeConfig
from repro.serve.queues import TenantQueue, aggregate_depth
from repro.serve.watchdog import Watchdog

WorkloadFactory = Callable[[], Workload]
PolicyFactory = Callable[[], TieringPolicy]


class MultiTenantLayout(Workload):
    """Adapter workload: lays out every tenant on one machine.

    The engine requires a workload for setup/identity, but the daemon
    never pulls batches from it -- batches arrive through the tenant
    queues.  This adapter allocates each tenant's regions (in sorted
    tenant order, so layout is independent of dict insertion order)
    and reports the summed footprint.
    """

    def __init__(self, tenants: dict[str, Workload]):
        if not tenants:
            raise ValueError("daemon needs at least one tenant workload")
        super().__init__(seed=0)
        self.tenants = dict(sorted(tenants.items()))
        self.name = "serve[" + ",".join(
            f"{tenant}:{w.name}" for tenant, w in self.tenants.items()
        ) + "]"

    @property
    def footprint_pages(self) -> int:
        return sum(w.footprint_pages for w in self.tenants.values())

    def setup(self, machine: Machine) -> None:
        for workload in self.tenants.values():
            workload.setup(machine)
        self._machine = machine

    def batches(self) -> Iterator[AccessBatch]:
        return iter(())

    def load_position(self, state: dict, batches_done: int) -> None:
        """Nothing to continue: the layout never streams.  Each tenant's
        position rides in its queue's checkpoint instead (see
        :class:`~repro.serve.driver.VirtualTimeDriver`)."""


@dataclass(frozen=True)
class TickReport:
    """What one daemon tick did (returned by :meth:`TieringDaemon.tick`)."""

    tick: int
    mode: str
    served: int
    queue_depth_start: int
    queue_depth_end: int
    budget_exceeded: bool
    mode_change: tuple[str, str] | None
    elapsed_ns: float


class TieringDaemon(Stateful):
    """Long-lived tiering service over one engine and N tenant queues.

    Parameters mirror :func:`~repro.core.runner.run_experiment` where
    they overlap; the serving-specific knobs live in ``serve``.  The
    daemon owns its checkpoint manager (payloads bundle engine *and*
    serving state) -- do not also give the engine one.  Its generations
    serve only its own watchdog, so ``checkpoint_dir`` must hold none
    yet: a directory with snapshot generations raises ``ValueError``
    and is left as it is.
    """

    #: Serving state.  The ``ServeConfig`` and the watchdog's restart
    #: count are not in it: a daemon restores only generations it wrote
    #: itself, so both are already the live ones (see :meth:`recover`).
    _state_fields = (
        "ticks",
        "ladder",
        "queues",
        "slo",
        "deadline_ticks",
        "degradations",
        "promotions",
        "migration_stall_ns",
    )

    def __init__(
        self,
        workload_factories: dict[str, WorkloadFactory],
        policy_factory: PolicyFactory,
        config: ExperimentConfig,
        serve: ServeConfig | None = None,
        tracer: Tracer | None = None,
        faults: FaultPlan | None = None,
        checkpoint_dir: str | None = None,
    ):
        if not workload_factories:
            raise ValueError("daemon needs at least one tenant workload")
        self.workload_factories = dict(sorted(workload_factories.items()))
        self.policy_factory = policy_factory
        self.config = config
        self.serve = serve if serve is not None else ServeConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_plan = faults
        self.checkpoint_manager = None
        if checkpoint_dir is not None:
            self.checkpoint_manager = CheckpointManager(checkpoint_dir)
            if self.checkpoint_manager.generations():
                raise ValueError(
                    f"checkpoint directory {checkpoint_dir} already holds "
                    "snapshot generations; a daemon restores only the "
                    "generations it writes, so give it an empty directory"
                )
        self.budget = TickBudget(self.serve.tick_budget_ns)
        self.watchdog = Watchdog(self.serve.max_restarts)
        self._reset_accounting()
        #: True while the live state differs from the newest checkpoint
        #: generation (nothing saved yet, or a tick/submit since).
        self._unsaved = True
        self._build()

    # -- construction / recovery -------------------------------------------

    def _reset_accounting(self) -> None:
        """Serving accounting at tick zero (construction, fresh restart)."""
        self.ladder = DegradationLadder(self.serve)
        #: SLO aggregation, live regardless of tracing: enqueue-to-
        #: service latency, per-tick policy overhead, queue depth.
        self.slo = HistogramRegistry()
        self.ticks = 0
        self.deadline_ticks = 0
        self.degradations = 0
        self.promotions = 0
        self.migration_stall_ns = 0.0

    def _build(self) -> None:
        """(Re)build the engine stack fresh from the factories.

        Called at construction and by :meth:`recover` -- the watchdog's
        restart path needs a from-scratch stack before restoring the
        checkpoint, exactly like a new process would.
        """
        tenants = {
            name: factory() for name, factory in self.workload_factories.items()
        }
        layout = MultiTenantLayout(tenants)
        machine = build_machine(layout.footprint_pages, self.config)
        self.engine = SimulationEngine(
            machine,
            layout,
            self.policy_factory(),
            tracer=self.tracer,
            fault_injector=build_injector(self.fault_plan, machine),
        )
        self.engine.setup()
        self.queues = {
            name: TenantQueue(
                name, self.serve.queue_capacity, self.serve.backpressure
            )
            for name in self.workload_factories
        }

    @property
    def tenants(self) -> dict[str, Workload]:
        return self.engine.workload.tenants

    @property
    def now_ns(self) -> float:
        return self.engine.now_ns

    @property
    def mode(self) -> str:
        return self.ladder.mode

    # -- intake ------------------------------------------------------------

    def submit(
        self,
        tenant: str,
        batch: AccessBatch,
        cursor: dict[str, Any] | None = None,
    ) -> str:
        """Offer one batch; returns the admission outcome.

        ``"enqueued"`` / ``"rejected"`` / ``"blocked"`` per the
        configured backpressure (see
        :class:`~repro.serve.queues.TenantQueue`); shedding to admit is
        reported as ``"enqueued"`` with a ``load_shed`` trace event for
        the evicted entries.  ``cursor`` is the tenant workload's state
        right after ``batch`` was pulled; the queue checkpoints it so
        crash recovery can resume the stream there.
        """
        queue = self.queues[tenant]
        outcome, shed = queue.offer(batch, self.engine.now_ns, cursor)
        # Even a rejection moves the queue's counters.
        self._unsaved = True
        if self.tracer.enabled:
            if shed:
                self.tracer.emit(
                    "load_shed",
                    t_ns=self.engine.now_ns,
                    tenant=tenant,
                    count=shed,
                    reason="shed_oldest",
                )
            elif outcome == "rejected":
                self.tracer.emit(
                    "load_shed",
                    t_ns=self.engine.now_ns,
                    tenant=tenant,
                    count=1,
                    reason="reject",
                )
        return outcome

    # -- the tick ----------------------------------------------------------

    def tick(self) -> TickReport:
        """Service up to ``max_batches_per_tick`` queued batches.

        One tick is the daemon's scheduling quantum: it sets the
        migration gate for the current ladder rung, drains queues
        round-robin (sorted tenant order) under the deadline budget,
        then feeds the end-of-tick queue pressure back into the ladder.
        """
        serve = self.serve
        engine = self.engine
        start_ns = engine.now_ns
        start_depth = aggregate_depth(self.queues).depth
        if self.tracer.enabled:
            self.tracer.emit(
                "tick_start",
                t_ns=start_ns,
                tick=self.ticks,
                mode=self.ladder.mode,
                queue_depth=start_depth,
            )
        self.budget.reset(serve.tick_budget_ns)
        engine.machine.migrations_enabled = self.ladder.migrations_enabled
        try:
            served = 0
            deadline_fired = False
            order = sorted(self.queues)
            cursor = 0
            while served < serve.max_batches_per_tick:
                entry = None
                for _ in range(len(order)):
                    queue = self.queues[order[cursor % len(order)]]
                    cursor += 1
                    entry = queue.pop()
                    if entry is not None:
                        break
                if entry is None:
                    break  # every queue empty
                invoke = (
                    self.ladder.invoke_policy(served)
                    and not self.budget.exceeded
                )
                outcome = engine.step(entry.batch, invoke_policy=invoke)
                self.queues[entry.tenant].served(entry)
                served += 1
                self.budget.charge(outcome.overhead_ns)
                latency = engine.now_ns - entry.enqueued_ns
                self.slo.observe("enqueue_to_service_ns", latency)
                if self.tracer.enabled:
                    self.tracer.observe("enqueue_to_service_ns", latency)
                if self.budget.exceeded and not deadline_fired:
                    deadline_fired = True
                    self.deadline_ticks += 1
                    if self.tracer.enabled:
                        self.tracer.emit(
                            "deadline_exceeded",
                            t_ns=engine.now_ns,
                            tick=self.ticks,
                            budget_ns=self.budget.budget_ns,
                            spent_ns=self.budget.spent_ns,
                        )
        finally:
            # A crashed tick must not leave the gate closed for the
            # rebuilt stack (load_state also re-enables it).
            engine.machine.migrations_enabled = True
        elapsed = engine.now_ns - start_ns
        if not self.ladder.migrations_enabled:
            self.migration_stall_ns += elapsed
        end = aggregate_depth(self.queues)
        self.slo.observe("tick_overhead_ns", self.budget.spent_ns)
        self.slo.observe("queue_depth", end.depth)
        change = self.ladder.observe_tick(
            end.fill_fraction, self.budget.exceeded
        )
        if change is not None:
            old, new = change
            demoted = _rung(new) > _rung(old)
            if demoted:
                self.degradations += 1
            else:
                self.promotions += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "degraded",
                    t_ns=engine.now_ns,
                    **{"from": old, "to": new},
                    reason="overload" if demoted else "recovered",
                )
        self.ticks += 1
        self._unsaved = True
        if (
            self.checkpoint_manager is not None
            and serve.checkpoint_every_ticks
            and self.ticks % serve.checkpoint_every_ticks == 0
        ):
            self.save_checkpoint()
        return TickReport(
            tick=self.ticks - 1,
            mode=self.ladder.mode,
            served=served,
            queue_depth_start=start_depth,
            queue_depth_end=end.depth,
            budget_exceeded=self.budget.exceeded,
            mode_change=change,
            elapsed_ns=elapsed,
        )

    def tick_guarded(self) -> TickReport | None:
        """One tick under watchdog protection.

        A tick that raises (an :class:`~repro.faults.InjectedCrash`, a
        policy bug...) is converted into a restart-from-checkpoint via
        :meth:`recover`; ``None`` is returned so callers know the tick
        did not complete.  Past the restart budget the watchdog's
        :class:`~repro.serve.watchdog.WatchdogGaveUp` propagates, and so
        does the :class:`~repro.state.SnapshotSchemaError` of a
        checkpoint that cannot be restored.
        """
        try:
            return self.tick()
        except Exception as exc:  # noqa: BLE001 - the whole point
            reason = f"{type(exc).__name__}: {exc}"
            self.watchdog.on_failure(reason)
            self.recover(reason)
            return None

    def recover(self, reason: str) -> int:
        """Rebuild the stack and restore the newest valid checkpoint.

        Every generation in the directory is this daemon's own (it
        refuses a directory that holds any when built), so the restore
        runs under the same ``ServeConfig`` and keeps the live restart
        count, which is never lower than a checkpointed one.

        Returns the restored checkpoint generation (-1 when none was
        found, i.e. a fresh restart from tick zero).  A checkpoint of
        another schema raises :class:`~repro.state.SnapshotSchemaError`
        before anything is rebuilt, so the failed tick stays failed
        instead of restarting from tick zero.  Pending queue entries
        are dropped -- after rolling the engine back they no longer
        line up with the restored accounting; the
        :class:`~repro.serve.driver.VirtualTimeDriver` resumes each
        tenant's stream at its queue's checkpointed cursor and
        regenerates only the backlog.
        """
        loaded = None
        if self.checkpoint_manager is not None:
            loaded = self.checkpoint_manager.load_latest()
        self._build()
        generation = -1
        if loaded is not None:
            payload = loaded.payload
            self.engine.restore_state(payload["engine"])
            self.load_state(payload["serve"])
            generation = loaded.generation
        # A restore matches the generation it read; a fresh restart
        # matches none.
        self._unsaved = generation < 0
        if generation < 0:
            # Fresh restart: serving accounting starts over too, and
            # the rebuilt injector's scheduled crash -- which already
            # fired once -- must not re-fire on the replay.
            self._reset_accounting()
            if self.engine.fault_injector is not None:
                self.engine.fault_injector.disarm_crash()
        self.budget = TickBudget(self.serve.tick_budget_ns)
        if self.tracer.enabled:
            self.tracer.emit(
                "watchdog_restart",
                t_ns=self.engine.now_ns,
                restarts=self.watchdog.restarts,
                reason=reason,
                generation=generation,
            )
        return generation

    # -- checkpointing -----------------------------------------------------

    def save_checkpoint(self) -> None:
        """Write one durable generation: engine state + serve state."""
        if self.checkpoint_manager is None:
            raise RuntimeError("daemon was built without a checkpoint_dir")
        path = self.checkpoint_manager.save(
            {
                "engine": self.engine.capture_state(),
                "serve": self.state_dict(),
            }
        )
        self._unsaved = False
        if self.tracer.enabled:
            self.tracer.emit(
                "checkpoint_saved",
                t_ns=self.engine.now_ns,
                batch=self.engine.batches_done,
                file=path.name,
            )

    # -- drain / teardown --------------------------------------------------

    def drain(self) -> int:
        """Service every queued batch, then checkpoint; returns count.

        The end of a run: intake is the caller's to stop
        (:meth:`~repro.serve.driver.VirtualTimeDriver.finish` calls
        this once every stream is offered).  Runs guarded ticks until
        every queue is empty, emits ``drain_complete``, and writes a
        final checkpoint when a checkpoint directory is configured and
        the state changed since the newest generation (a periodic save
        on the last tick already holds it).
        """
        served = 0
        while aggregate_depth(self.queues).depth > 0:
            report = self.tick_guarded()
            if report is not None:
                served += report.served
        if self.tracer.enabled:
            self.tracer.emit(
                "drain_complete",
                t_ns=self.engine.now_ns,
                served=served,
                remaining=aggregate_depth(self.queues).depth,
            )
        if self.checkpoint_manager is not None and self._unsaved:
            self.save_checkpoint()
        return served

    def finalize(
        self, warmup_fraction: float = 0.0
    ) -> ExperimentResult | None:
        """Engine-side results for the batches served so far.

        ``None`` when nothing was ever serviced (the metrics reduction
        needs at least one record).
        """
        if not len(self.engine.metrics):
            return None
        return self.engine.finalize(warmup_fraction=warmup_fraction)

    def slo_summary(self) -> dict[str, Any]:
        """SLO-grade scalars: latency quantiles plus serving counters."""
        out: dict[str, Any] = {
            "ticks": self.ticks,
            "mode": self.ladder.mode,
            "deadline_ticks": self.deadline_ticks,
            "degradations": self.degradations,
            "promotions": self.promotions,
            "restarts": self.watchdog.restarts,
            "migration_stall_ns": self.migration_stall_ns,
            "migrations_deferred": self.engine.machine.migrations_deferred,
        }
        for tenant, queue in self.queues.items():
            for key, value in queue.counters.as_dict().items():
                out[f"{tenant}_{key}"] = value
        for name in ("enqueue_to_service_ns", "tick_overhead_ns",
                     "queue_depth"):
            summary = self.slo.summary(name)
            if summary is not None:
                for stat, value in summary.items():
                    out[f"{name}_{stat}"] = value
        return out


def _rung(mode: str) -> int:
    return DEGRADATION_MODES.index(mode)
