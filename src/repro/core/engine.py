"""The simulation event loop.

Order of operations per batch (mirrors how the real system overlaps):

1. Placement of every accessed page is read *before* this batch's
   migrations: accesses during the batch were serviced by wherever the
   pages lived when touched.
2. The policy observes the batch (via its samplers) and may migrate.
3. The cost model converts the batch's activity -- compute, per-tier
   accesses, migration volume, policy overhead -- into simulated time.

Virtual time only; nothing depends on the wall clock.

Checkpointing: pass a :class:`~repro.state.CheckpointManager` plus
``checkpoint_every_batches`` and the engine snapshots its full state
(progress, workload stream position, metrics, machine placement,
policy, fault injector) every N batches;
:meth:`SimulationEngine.restore_state` resumes a fresh engine from such
a snapshot bit-identically, without regenerating the completed batches
(see docs/API.md "Checkpoint & resume").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro import accel
from repro.core.metrics import MetricsCollector
from repro.memsim.machine import Machine
from repro.obs import NULL_TRACER, Tracer
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.workloads.spec import Workload

if TYPE_CHECKING:
    from repro.state import CheckpointManager


@dataclass(frozen=True)
class StepOutcome:
    """What one :meth:`SimulationEngine.step` call did.

    ``total_ns`` is the simulated time the batch consumed (the engine
    already advanced ``now_ns`` by it); ``overhead_ns`` is the policy's
    share, which serving-loop budgets charge against their per-tick
    deadline.
    """

    total_ns: float
    overhead_ns: float
    n_local: int
    n_cxl: int
    pages_migrated: int


#: Stand-in prefix for batches without runs (never read).
_NO_PREFIX = np.empty(0, dtype=np.int64)


class BatchContext:
    """Reusable per-batch scratch arrays, owned by the engine.

    The fused batch step writes each batch's head placement gather into
    the same grow-only buffer instead of allocating a fresh array per
    batch.  Scratch is not checkpointed -- contents never outlive one
    batch.
    """

    def __init__(self) -> None:
        self._tiers = np.empty(0, dtype=np.int8)
        self._prefix = np.empty(0, dtype=np.int64)
        self._prefix_key: tuple[int, int] | None = None

    def tiers_for(self, n: int) -> np.ndarray:
        """A length-``n`` int8 view for this batch's head placement codes."""
        if self._tiers.size < n:
            self._tiers = np.empty(max(n, 2 * self._tiers.size), dtype=np.int8)
        return self._tiers[:n]

    def prefix_for(self, placement: np.ndarray, version: int) -> np.ndarray:
        """The local-placement prefix sum for ``placement``.

        Rebuilt only when the page table's mutation ``version`` (or the
        placement size) changes; most batches between migration windows
        reuse the cached sum, skipping the O(pages) cumsum.
        """
        n = placement.size
        if self._prefix.size < n + 1:
            self._prefix = np.empty(
                max(n + 1, 2 * self._prefix.size), dtype=np.int64
            )
            self._prefix_key = None
        view = self._prefix[: n + 1]
        key = (version, n)
        if self._prefix_key != key:
            accel.placement_prefix(placement, view)
            self._prefix_key = key
        return view


class SimulationEngine:
    """Drives one (machine, workload, policy) experiment.

    Pass a :class:`~repro.obs.Tracer` to observe the run: the engine
    emits one ``batch`` event per serviced access batch, advances the
    tracer's virtual clock, and hands the same tracer to the policy
    (and machine) so their events share the timeline.  The default
    :data:`~repro.obs.NULL_TRACER` is a no-op.
    """

    def __init__(
        self,
        machine: Machine,
        workload: Workload,
        policy: TieringPolicy,
        tracer: Tracer | None = None,
        fault_injector=None,
        checkpoint_manager: "CheckpointManager | None" = None,
        checkpoint_every_batches: int = 0,
    ):
        if checkpoint_every_batches < 0:
            raise ValueError(
                "checkpoint_every_batches must be >= 0, got "
                f"{checkpoint_every_batches}"
            )
        self.machine = machine
        self.workload = workload
        self.policy = policy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.fault_injector = fault_injector
        self.checkpoint_manager = checkpoint_manager
        self.checkpoint_every_batches = int(checkpoint_every_batches)
        self.metrics = MetricsCollector()
        self.batch_ctx = BatchContext()
        self.now_ns = 0.0
        self.batches_done = 0
        self.accesses_done = 0
        self._setup_done = False

    def setup(self) -> None:
        """Attach the policy, then lay out the workload.

        Policy first: systems that pin metadata in local DRAM (HeMem)
        must reserve it before the application's pages are placed.
        """
        if self._setup_done:
            return
        self.machine.tracer = self.tracer
        self.policy.set_tracer(self.tracer)
        if self.fault_injector is not None:
            # Before attach: policies propagate the injector into the
            # samplers they build at attach time.
            self.fault_injector.tracer = self.tracer
            self.machine.fault_injector = self.fault_injector
            self.policy.set_fault_injector(self.fault_injector)
        self.policy.attach(self.machine)
        self.workload.setup(self.machine)
        self._setup_done = True

    # -- checkpointing ----------------------------------------------------

    def capture_state(self) -> dict:
        """Full engine state as a checkpoint payload.

        Captures everything :meth:`restore_state` needs to continue the
        run bit-identically: progress counters, the workload's declared
        state (its stream position: RNGs and cursors), per-batch
        metrics, the machine's placement/traffic, the policy's internal
        state and (when present) the fault injector.
        """
        self.setup()
        payload = {
            "identity": {
                "policy": self.policy.name,
                "workload": self.workload.name,
                "local_capacity_pages": self.machine.config.local_capacity_pages,
                "cxl_capacity_pages": self.machine.config.cxl_capacity_pages,
            },
            "progress": {
                "now_ns": self.now_ns,
                "batches_done": self.batches_done,
                "accesses_done": self.accesses_done,
            },
            "workload": self.workload.state_dict(),
            "metrics": self.metrics.state_dict(),
            "machine": self.machine.state_dict(),
            "policy": self.policy.state_dict(),
            "faults": (
                self.fault_injector.state_dict()
                if self.fault_injector is not None
                else None
            ),
        }
        return payload

    def restore_state(self, payload: dict) -> None:
        """Restore a :meth:`capture_state` payload onto this engine.

        Must be called before :meth:`run`; the engine/machine/policy
        must be configured identically to the run that produced the
        snapshot (identity fields are validated).  The workload takes
        back its stream position
        (:meth:`~repro.workloads.spec.Workload.load_position`, which
        raises rather than restart a stream it cannot continue), so the
        next ``run()`` pulls the first batch after the snapshot and
        continues bit-identically.
        """
        self.setup()
        identity = payload["identity"]
        expected = {
            "policy": self.policy.name,
            "workload": self.workload.name,
            "local_capacity_pages": self.machine.config.local_capacity_pages,
            "cxl_capacity_pages": self.machine.config.cxl_capacity_pages,
        }
        mismatched = {
            key: (identity.get(key), want)
            for key, want in expected.items()
            if identity.get(key) != want
        }
        if mismatched:
            raise ValueError(
                f"snapshot does not match this experiment: {mismatched}"
            )
        progress = payload["progress"]
        self.now_ns = float(progress["now_ns"])
        self.batches_done = int(progress["batches_done"])
        self.accesses_done = int(progress["accesses_done"])
        self.workload.load_position(payload["workload"], self.batches_done)
        self.metrics.load_state(payload["metrics"])
        self.machine.load_state(payload["machine"])
        self.policy.load_state(payload["policy"])
        if payload.get("faults") is not None:
            if self.fault_injector is None:
                raise ValueError(
                    "snapshot carries fault-injector state but this engine "
                    "has no fault injector"
                )
            self.fault_injector.load_state(payload["faults"])
        if self.tracer.enabled:
            self.tracer.emit(
                "checkpoint_restored",
                t_ns=self.now_ns,
                batch=self.batches_done,
            )

    def _save_checkpoint(self) -> None:
        assert self.checkpoint_manager is not None
        path = self.checkpoint_manager.save(self.capture_state())
        if self.tracer.enabled:
            self.tracer.emit(
                "checkpoint_saved",
                t_ns=self.now_ns,
                batch=self.batches_done,
                file=path.name,
            )

    def step(
        self, batch: AccessBatch, *, invoke_policy: bool = True
    ) -> StepOutcome:
        """Service one access batch (the body of :meth:`run`'s loop).

        Reads placement, records traffic, optionally invokes the
        policy, charges the cost model, advances ``now_ns`` and the
        progress counters, and saves a checkpoint when the cadence is
        due.  :meth:`run` calls this for every batch of the workload
        stream; the serving daemon (:mod:`repro.serve`) calls it for
        batches dequeued from live tenant queues -- with
        ``invoke_policy=False`` when its degradation ladder has shut
        policy work off (accesses are still serviced and accounted).
        """
        machine = self.machine
        tracer = self.tracer
        tracer.clock_ns = self.now_ns
        if self.fault_injector is not None:
            self.fault_injector.tick_batch()
        # Fused placement readback, never expanding the stream.  The
        # placement view is re-fetched each batch because load_state()
        # replaces it; the prefix sum is only needed to count runs.
        placement = machine.page_table.placement_view()
        ctx = self.batch_ctx
        head = batch.head_page_ids
        prefix = (
            ctx.prefix_for(placement, machine.page_table.version)
            if batch.run_starts.size
            else _NO_PREFIX
        )
        n_local, n_cxl = accel.compressed_placement_counts(
            placement,
            prefix,
            head,
            batch.run_starts,
            batch.run_counts,
            ctx.tiers_for(head.size),
        )
        machine.traffic.record_accesses(n_local, n_cxl)

        migrated_before = machine.traffic.pages_migrated
        if invoke_policy:
            overhead_ns = self.policy.on_batch(
                batch, self.now_ns, (n_local, n_cxl)
            )
        else:
            overhead_ns = 0.0
        migrated = machine.traffic.pages_migrated - migrated_before
        if tracer.enabled:
            tracer.emit(
                "batch",
                t_ns=self.now_ns,
                n_local=n_local,
                n_cxl=n_cxl,
                pages_migrated=migrated,
                overhead_ns=overhead_ns,
            )

        cost = machine.cost_model.batch_cost(
            cpu_ns=batch.cpu_ns,
            local_accesses=n_local,
            cxl_accesses=n_cxl,
            pages_migrated=migrated,
            overhead_ns=overhead_ns,
            bytes_per_access=batch.bytes_per_access,
        )
        self.metrics.record_batch(
            start_ns=self.now_ns,
            cost=cost,
            num_ops=batch.num_ops,
            local_accesses=n_local,
            cxl_accesses=n_cxl,
            pages_migrated=migrated,
            label=batch.label,
        )
        self.now_ns += cost.total_ns
        self.accesses_done += batch.num_accesses
        self.batches_done += 1

        if (
            self.checkpoint_manager is not None
            and self.checkpoint_every_batches
            and self.batches_done % self.checkpoint_every_batches == 0
        ):
            self._save_checkpoint()
        return StepOutcome(
            total_ns=cost.total_ns,
            overhead_ns=overhead_ns,
            n_local=n_local,
            n_cxl=n_cxl,
            pages_migrated=migrated,
        )

    def finalize(self, warmup_fraction: float = 0.25):
        """Reduce everything recorded so far to an ExperimentResult."""
        policy_stats = self.policy.stats.as_dict()
        if self.tracer.enabled:
            # The tracer's per-run aggregates (samples lost, scan
            # chunks, CBF ops, migration batch sizes...) ride along in
            # policy_stats so reports need not parse the trace file.
            policy_stats.update(self.tracer.stats_dict())
        return self.metrics.finalize(
            policy_name=self.policy.name,
            workload_name=self.workload.name,
            traffic_breakdown=self.machine.traffic.breakdown(),
            migration_bytes=self.machine.traffic.migration_bytes,
            warmup_fraction=warmup_fraction,
            policy_stats=policy_stats,
        )

    def run(
        self,
        max_batches: int | None = None,
        max_accesses: int | None = None,
        warmup_fraction: float = 0.25,
    ):
        """Run to a limit (or trace exhaustion); returns ExperimentResult."""
        self.setup()
        for batch in self.workload.batches():
            if max_batches is not None and self.batches_done >= max_batches:
                break
            if max_accesses is not None and self.accesses_done >= max_accesses:
                break
            self.step(batch)
        return self.finalize(warmup_fraction=warmup_fraction)
