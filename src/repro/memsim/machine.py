"""The tiered machine: allocation, watermarks, and page migration.

Combines the address space, page table, traffic meter and cost model
into the single object tiering policies act on.  The interface mirrors
what FreqTier and the baselines use on Linux (paper Sections IV-V):

- **allocation** follows the default Linux policy: new pages are served
  from local DRAM while space is available, then spill to CXL;
- **watermarks** ``DEMOTE_WMARK > PROMO_WMARK`` are measured against
  free local capacity (paper Section V-B / Fig. 6): when free local
  memory falls below ``PROMO_WMARK`` the policy demotes until free
  memory exceeds ``DEMOTE_WMARK``;
- :meth:`Machine.move_pages_ex` is the ``numa_move_pages()`` analogue:
  batched, capacity-checked, traffic-accounted, with per-page outcomes.

The engine services accesses itself (``SimulationEngine.step``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.memsim.address_space import AddressSpace, VMARegion
from repro.memsim.costmodel import CostModel, CostModelParams
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER, PageTable
from repro.memsim.tier import CXL1_CONFIG, TieredMemoryConfig
from repro.memsim.traffic import TrafficMeter
from repro.obs import NULL_TRACER, Tracer
from repro.state.codec import Stateful

if TYPE_CHECKING:  # import cycle guard: faults imports obs only
    from repro.faults import FaultInjector

_NO_PAGES = np.zeros(0, dtype=np.int64)


@dataclass
class MoveOutcome:
    """Per-page result of one :meth:`Machine.move_pages_ex` call.

    Mirrors the per-page status array ``numa_move_pages()`` fills in:
    a page either moved, was rejected for target capacity (ENOMEM past
    the free watermark -- the pre-existing truncation behaviour), or
    was failed by the fault injector (transiently, or because it is
    pinned).  ``enomem`` marks a whole-call target-node failure burst.
    """

    moved: np.ndarray = field(default_factory=lambda: _NO_PAGES)
    rejected_capacity: np.ndarray = field(default_factory=lambda: _NO_PAGES)
    failed_transient: np.ndarray = field(default_factory=lambda: _NO_PAGES)
    failed_pinned: np.ndarray = field(default_factory=lambda: _NO_PAGES)
    enomem: bool = False

    @property
    def num_moved(self) -> int:
        return int(self.moved.size)

    @property
    def num_failed(self) -> int:
        """Fault-failed pages (capacity rejections are not faults)."""
        return int(self.failed_transient.size + self.failed_pinned.size)

    @property
    def failed(self) -> np.ndarray:
        """All fault-failed pages, transient first."""
        if self.failed_pinned.size == 0:
            return self.failed_transient
        if self.failed_transient.size == 0:
            return self.failed_pinned
        return np.concatenate((self.failed_transient, self.failed_pinned))


@dataclass
class MachineConfig:
    """Capacities and watermark settings of one tiered machine."""

    local_capacity_pages: int
    cxl_capacity_pages: int
    memory: TieredMemoryConfig = CXL1_CONFIG
    #: Demotion stops once free local capacity exceeds this fraction.
    demote_wmark_frac: float = 0.04
    #: Demotion starts once free local capacity falls below this fraction.
    promo_wmark_frac: float = 0.02
    cost_params: CostModelParams = field(default_factory=CostModelParams)

    def __post_init__(self) -> None:
        if self.local_capacity_pages <= 0:
            raise ValueError(
                f"local_capacity_pages must be > 0, got {self.local_capacity_pages}"
            )
        if self.cxl_capacity_pages <= 0:
            raise ValueError(
                f"cxl_capacity_pages must be > 0, got {self.cxl_capacity_pages}"
            )
        if not 0.0 <= self.promo_wmark_frac <= self.demote_wmark_frac <= 1.0:
            raise ValueError(
                "need 0 <= promo_wmark_frac <= demote_wmark_frac <= 1, got "
                f"promo={self.promo_wmark_frac} demote={self.demote_wmark_frac}"
            )

    @property
    def total_capacity_pages(self) -> int:
        return self.local_capacity_pages + self.cxl_capacity_pages

    @property
    def local_ratio(self) -> float:
        """Local share of total capacity (e.g. 1:32 config -> ~0.03)."""
        return self.local_capacity_pages / self.total_capacity_pages


class CapacityError(RuntimeError):
    """Raised when an allocation cannot fit in the machine."""


class Machine(Stateful):
    """A two-tier (local DRAM + CXL) memory machine.

    Checkpoints placement, traffic and reservations.  The address
    space's region layout is *not* captured: it is a pure function of
    the deterministic setup sequence, which resume replays before
    restoring this state (see ``SimulationEngine.restore_state``).
    """

    _state_fields = (
        "page_table",
        "traffic",
        "_reserved_local_pages",
        "migrations_deferred",
    )

    def __init__(self, config: MachineConfig):
        self.config = config
        self.address_space = AddressSpace()
        self.page_table = PageTable(config.total_capacity_pages)
        self.traffic = TrafficMeter()
        self.cost_model = CostModel(config.memory, config.cost_params)
        #: Observability handle; timestamps use ``tracer.clock_ns``
        #: (the engine advances it), as the machine has no clock.
        self.tracer: Tracer = NULL_TRACER
        #: Optional fault injector (see :mod:`repro.faults`): when set,
        #: migrations consult it for per-page failures and the access
        #: path ticks its batch clock.
        self.fault_injector: FaultInjector | None = None
        #: Migration gate.  While False, every :meth:`move_pages_ex`
        #: call is refused wholesale: pages land in
        #: ``rejected_capacity`` (the disposition policies already
        #: drop silently -- candidates re-qualify through the normal
        #: path later) and no traffic or fault RNG is consumed.  The
        #: serving daemon closes the gate in its defer-migrations /
        #: sample-only degradation modes.
        self.migrations_enabled = True
        #: Pages refused by the closed gate (cumulative; the daemon's
        #: migration-stall accounting reads deltas of this).
        self.migrations_deferred = 0
        self._reserved_local_pages = 0

    # -- reservations (e.g. pinned tiering metadata) -----------------------

    @property
    def reserved_local_pages(self) -> int:
        return self._reserved_local_pages

    def reserve_local_pages(self, num_pages: int) -> None:
        """Pin ``num_pages`` of local DRAM for non-application use.

        Models metadata that a tiering runtime keeps resident in local
        DRAM (e.g. HeMem's 168 bytes/page tables, paper Section VII-C),
        shrinking the capacity available to application pages.
        """
        if num_pages < 0:
            raise ValueError(f"num_pages must be >= 0, got {num_pages}")
        available = self.config.local_capacity_pages - self._reserved_local_pages
        if num_pages > available:
            raise CapacityError(
                f"cannot reserve {num_pages} local pages; only {available} left"
            )
        self._reserved_local_pages += num_pages

    # -- capacity ---------------------------------------------------------

    @property
    def local_used_pages(self) -> int:
        return self.page_table.count_in_tier(LOCAL_TIER)

    @property
    def cxl_used_pages(self) -> int:
        return self.page_table.count_in_tier(CXL_TIER)

    @property
    def local_free_pages(self) -> int:
        return (
            self.config.local_capacity_pages
            - self._reserved_local_pages
            - self.local_used_pages
        )

    @property
    def cxl_free_pages(self) -> int:
        return self.config.cxl_capacity_pages - self.cxl_used_pages

    # -- watermarks (paper Fig. 6) -------------------------------------------

    @property
    def demote_wmark_pages(self) -> int:
        return max(
            2, int(self.config.demote_wmark_frac * self.config.local_capacity_pages)
        )

    @property
    def promo_wmark_pages(self) -> int:
        return max(
            1, int(self.config.promo_wmark_frac * self.config.local_capacity_pages)
        )

    def below_promo_wmark(self) -> bool:
        """True when free local memory is low enough to trigger demotion."""
        return self.local_free_pages < self.promo_wmark_pages

    def above_demote_wmark(self) -> bool:
        """True when demotion has freed enough local memory to stop."""
        return self.local_free_pages > self.demote_wmark_pages

    def demotion_deficit_pages(self) -> int:
        """Pages to demote to bring free local memory above DEMOTE_WMARK."""
        return max(0, self.demote_wmark_pages - self.local_free_pages + 1)

    # -- allocation -------------------------------------------------------------

    def allocate(self, num_pages: int, name: str = "anon") -> VMARegion:
        """Map a region local-first (the default Linux policy, paper
        Section V-B): pages fill local DRAM, the rest go to CXL."""
        if num_pages > self.local_free_pages + self.cxl_free_pages:
            raise CapacityError(
                f"cannot allocate {num_pages} pages: only "
                f"{self.local_free_pages + self.cxl_free_pages} free"
            )
        region = self.address_space.map_region(num_pages, name=name)
        pages = np.arange(region.start_page, region.end_page, dtype=np.int64)
        n_local = min(num_pages, self.local_free_pages)
        if n_local:
            self.page_table.place(pages[:n_local], LOCAL_TIER)
        if n_local < num_pages:
            self.page_table.place(pages[n_local:], CXL_TIER)
        return region

    # -- migration (numa_move_pages analogue) --------------------------------------

    def move_pages_ex(self, pages: np.ndarray, target_tier: int) -> MoveOutcome:
        """Migrate ``pages`` to ``target_tier`` with per-page outcomes.

        Pages already on the target tier or unmapped are skipped; the
        move is truncated to the target tier's free capacity (as the
        kernel call would fail with ENOMEM beyond it).  When a fault
        injector is installed it may additionally fail individual
        pages (EBUSY/pinned) or the whole call (target-node ENOMEM
        burst).  Traffic is recorded for the pages moved.

        ``pages`` must be distinct: a repeated id is moved and counted
        twice by the page table, whose tier counts then drift.
        """
        pages = np.atleast_1d(np.asarray(pages, dtype=np.int64))
        if pages.size == 0:
            return MoveOutcome()
        placement = self.page_table.tier_of(pages)
        source_tier = LOCAL_TIER if target_tier == CXL_TIER else CXL_TIER
        movable = pages[placement == source_tier]
        outcome = MoveOutcome()
        if not self.migrations_enabled:
            # Gate closed (degraded serving mode): refuse the whole
            # call before the fault injector so no fault RNG is drawn
            # for work that was never attempted.
            if movable.size:
                self.migrations_deferred += int(movable.size)
                outcome.rejected_capacity = movable
                if self.tracer.enabled:
                    self.tracer.count("migrations_deferred", int(movable.size))
            return outcome
        if self.fault_injector is not None and movable.size:
            (
                movable,
                outcome.failed_pinned,
                outcome.failed_transient,
                outcome.enomem,
            ) = self.fault_injector.filter_migration(movable, target_tier)
        free = (
            self.local_free_pages if target_tier == LOCAL_TIER else self.cxl_free_pages
        )
        free = max(0, free)
        moved = movable[:free]
        outcome.moved = moved
        outcome.rejected_capacity = movable[free:]
        if moved.size == 0:
            return outcome
        self.page_table.place(moved, target_tier)
        promotion = target_tier == LOCAL_TIER
        self.traffic.record_migration(int(moved.size), promotion=promotion)
        if self.tracer.enabled:
            if promotion:
                self.tracer.observe("promotion_batch_pages", int(moved.size))
                self.tracer.count("pages_promoted", int(moved.size))
            else:
                self.tracer.observe("demotion_batch_pages", int(moved.size))
                self.tracer.count("pages_demoted", int(moved.size))
        return outcome

    def placement_of(self, page_ids: np.ndarray) -> np.ndarray:
        """Vectorized tier lookup without traffic accounting.

        Returns the page table's native int8 placement codes (no
        widening copy; see :meth:`PageTable.tier_of`).
        """
        return self.page_table.tier_of(page_ids)

    # -- checkpointing ----------------------------------------------------

    def load_state(self, state: dict) -> None:
        super().load_state(state)
        # The migration gate is per-tick daemon control, not state.
        self.migrations_enabled = True
