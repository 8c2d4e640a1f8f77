"""Deterministic fault injection for the simulated tiering stack.

One :class:`FaultInjector` instance is built per experiment from a
:class:`~repro.faults.plan.FaultPlan` and wired into the three contact
points a real tiering daemon has with the kernel:

- :meth:`~repro.memsim.machine.Machine.move_pages_ex` consults
  :meth:`FaultInjector.filter_migration` (per-page EBUSY, pinned pages,
  target-node ENOMEM bursts);
- :meth:`~repro.sampling.pebs.PEBSSampler.observe` consults
  :meth:`FaultInjector.sample_loss` and
  :meth:`FaultInjector.corrupt_samples`;
- :meth:`~repro.core.engine.SimulationEngine.step` calls
  :meth:`FaultInjector.tick_batch` once per batch, which advances the
  crash countdown.

All randomness comes from one ``numpy`` Generator seeded with the
plan's fault seed, so a faulted run is **bit-identical across
repeats** -- the property the chaos suite asserts.  Every injected
fault is traced as a ``fault_injected`` event and tallied in
:attr:`FaultInjector.counters` for assertions that need no tracer.
"""

from __future__ import annotations

import os

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import NULL_TRACER, Tracer
from repro.state.codec import Stateful

_EMPTY = np.zeros(0, dtype=np.int64)


class InjectedCrash(RuntimeError):
    """The fault plan scheduled a daemon crash at this point."""


class FaultInjector(Stateful):
    """Executes a :class:`FaultPlan` against one simulated machine.

    Parameters
    ----------
    plan:
        The fault plan to execute.
    total_pages:
        The machine's total page count -- bounds the pinned-page draw
        and positions corrupted sample ids *out of* range.
    tracer:
        Observability handle (``fault_injected`` events); usually
        installed later by the engine, alongside the machine's.
    """

    #: All mutable injector state (the pinned mask is a pure function
    #: of the plan seed, so it is not duplicated here).
    _state_fields = (
        "_rng",
        "_enomem_left",
        "_loss_left",
        "batch_index",
        "counters",
    )

    def __init__(
        self,
        plan: FaultPlan,
        total_pages: int,
        tracer: Tracer = NULL_TRACER,
    ):
        if total_pages < 1:
            raise ValueError(f"total_pages must be >= 1, got {total_pages}")
        self.plan = plan
        self.total_pages = int(total_pages)
        self.tracer = tracer
        self._rng = np.random.default_rng(np.random.SeedSequence([plan.seed, 0xFA]))
        self._pinned_mask = np.zeros(self.total_pages, dtype=bool)
        if plan.pinned_fraction > 0.0:
            n_pinned = int(round(plan.pinned_fraction * self.total_pages))
            if n_pinned:
                drawn = self._rng.choice(
                    self.total_pages, size=n_pinned, replace=False
                )
                self._pinned_mask[drawn] = True
        for page in plan.pinned_pages:
            if page < self.total_pages:
                self._pinned_mask[page] = True
        #: Remaining ENOMEM-burst calls, indexed by target tier id.
        self._enomem_left = np.zeros(2, dtype=np.int64)
        #: Remaining sample-loss-burst observed batches.
        self._loss_left = 0
        self.batch_index = 0
        #: Set when state was restored from a checkpoint: the restored
        #: incarnation *is* the post-crash run, so the scheduled crash
        #: must not re-fire on every subsequent batch.
        self._crash_disarmed = False
        #: Injected-fault tallies by kind (mirrors the traced events).
        self.counters: dict[str, int] = {
            "migration_transient": 0,
            "migration_pinned": 0,
            "migration_enomem": 0,
            "samples_lost": 0,
            "samples_corrupted": 0,
        }

    # -- time base ---------------------------------------------------------

    def tick_batch(self) -> None:
        """Advance one simulated batch; fires any scheduled crash."""
        self.batch_index += 1
        after = self.plan.crash_after_batches
        if after is not None and not self._crash_disarmed and (
            self.batch_index >= after
        ):
            if self.plan.crash_hard:
                # A segfaulting daemon does not unwind its stack; this
                # is what produces BrokenProcessPool under a pool.
                os._exit(13)
            raise InjectedCrash(
                f"injected crash after {self.batch_index} batches"
            )

    def disarm_crash(self) -> None:
        """Prevent the scheduled crash from (re)firing.

        :meth:`load_state` disarms implicitly (a restored incarnation
        is the post-crash run); supervisors that restart *without* a
        checkpoint -- e.g. the serving daemon's watchdog on a fresh
        restart -- must disarm explicitly, or the rebuilt injector
        would re-fire the same crash forever.
        """
        self._crash_disarmed = True

    # -- migration faults --------------------------------------------------

    @property
    def pinned_pages(self) -> np.ndarray:
        """The resolved pinned-page set (sorted page ids)."""
        return np.flatnonzero(self._pinned_mask).astype(np.int64)

    def filter_migration(
        self, pages: np.ndarray, target_tier: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """Partition one migration batch into (allowed, pinned, transient).

        Returns ``(allowed, failed_pinned, failed_transient, enomem)``.
        During an ENOMEM burst on ``target_tier`` the whole call fails:
        ``allowed`` is empty, every page lands in ``failed_transient``
        (the caller cannot distinguish why the node refused), and
        ``enomem`` is True.
        """
        plan = self.plan
        n = int(pages.size)
        if n == 0:
            return pages, _EMPTY, _EMPTY, False
        if self._enomem_active(target_tier):
            self.counters["migration_enomem"] += n
            self._trace("migration_enomem", n)
            return _EMPTY, _EMPTY, pages, True
        pinned = self._pinned_mask[pages]
        if plan.migration_fail_prob > 0.0:
            transient = self._rng.random(n) < plan.migration_fail_prob
        else:
            transient = np.zeros(n, dtype=bool)
        transient &= ~pinned  # pinned dominates
        allowed = pages[~pinned & ~transient]
        n_pinned = int(np.count_nonzero(pinned))
        n_transient = int(np.count_nonzero(transient))
        if n_pinned:
            self.counters["migration_pinned"] += n_pinned
            self._trace("migration_pinned", n_pinned)
        if n_transient:
            self.counters["migration_transient"] += n_transient
            self._trace("migration_transient", n_transient)
        return allowed, pages[pinned], pages[transient], False

    def _enomem_active(self, target_tier: int) -> bool:
        """One ENOMEM-burst state step for a move_pages call."""
        left = int(self._enomem_left[target_tier])
        if left > 0:
            self._enomem_left[target_tier] = left - 1
            return True
        if self.plan.enomem_prob > 0.0 and (
            float(self._rng.random()) < self.plan.enomem_prob
        ):
            self._enomem_left[target_tier] = self.plan.enomem_burst_calls - 1
            return True
        return False

    # -- sampling faults ---------------------------------------------------

    def sample_loss(self, num_samples: int) -> int:
        """Samples (out of ``num_samples``) lost to an overrun burst.

        Bursts are all-or-nothing per observed batch, matching how a
        ring overrun drops whole drain intervals.
        """
        if num_samples <= 0:
            return 0
        if self._loss_left > 0:
            self._loss_left -= 1
            self.counters["samples_lost"] += num_samples
            self._trace("samples_lost", num_samples)
            return num_samples
        if self.plan.sample_loss_prob > 0.0 and (
            float(self._rng.random()) < self.plan.sample_loss_prob
        ):
            self._loss_left = self.plan.sample_loss_burst_batches - 1
            self.counters["samples_lost"] += num_samples
            self._trace("samples_lost", num_samples)
            return num_samples
        return 0

    def corrupt_samples(self, page_ids: np.ndarray) -> np.ndarray:
        """Replace a random subset of sample ids with out-of-range garbage.

        Returns a copy when anything is corrupted; the input is never
        mutated (the sampler hands us views into the workload batch).
        """
        prob = self.plan.sample_corrupt_prob
        n = int(page_ids.size)
        if prob <= 0.0 or n == 0:
            return page_ids
        mask = self._rng.random(n) < prob
        n_bad = int(np.count_nonzero(mask))
        if n_bad == 0:
            return page_ids
        corrupted = page_ids.copy()
        # Garbage ids beyond the mapped space, as a torn 16-byte PEBS
        # record read would yield.
        corrupted[mask] = self.total_pages + self._rng.integers(
            0, 1 << 20, size=n_bad, dtype=np.int64
        )
        self.counters["samples_corrupted"] += n_bad
        self._trace("samples_corrupted", n_bad)
        return corrupted

    # -- checkpointing -----------------------------------------------------

    def load_state(self, state: dict) -> None:
        """Restore injector state; disarms any scheduled crash.

        The restored incarnation is the run *after* the injected crash:
        the crash check consumes no RNG, so a crashed-then-resumed run
        stays bit-identical to an uninterrupted run whose plan never
        scheduled the crash.
        """
        super().load_state(state)
        self._crash_disarmed = True

    # -- tracing -----------------------------------------------------------

    def _trace(self, kind: str, count: int) -> None:
        if self.tracer.enabled:
            self.tracer.count(f"faults_{kind}", count)
            self.tracer.emit("fault_injected", kind=kind, count=count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(batch={self.batch_index}, "
            f"counters={self.counters})"
        )
