"""TPP: Transparent Page Placement (paper Sections II-C1, VI-B).

TPP shares AutoNUMA's hint-fault sampling but differs in both
directions of migration:

- **Promotion**: a faulted page is promoted only if it is on the
  *active LRU list* -- i.e. it has been observed at least twice within
  the activation window.  All active pages are treated equally
  regardless of how hot they actually are (the inaccuracy the paper
  calls out), and promotion is not rate-limited, which is why TPP's
  migration traffic in the paper's Figure 2 is the largest of all
  systems (up to 43.5% of total traffic).
- **Demotion**: plain LRU (the paper evaluates TPP on kernel v6.0,
  which lacks MGLRU-based demotion), modeled as recency derived only
  from fault observations -- a staler, noisier signal than AutoNUMA's.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER
from repro.policies.base import HintFaultPolicy
from repro.sampling.events import AccessBatch


class TPP(HintFaultPolicy):
    """Hint faults + active-LRU promotion, plain-LRU demotion."""

    name = "TPP"
    DEMOTE_PAGE_NS = 50.0  # LRU bookkeeping per demoted page
    _state_fields = HintFaultPolicy._state_fields + (
        "scanner",
        "_last_fault_ns",
        "_last_ref_ns",
        "_lru_snapshot",
        "_accesses_since_scan",
        "_accesses_since_snapshot",
    )

    def __init__(
        self,
        scan_period_accesses: int = 25_000,
        window_fraction: float = 0.01,
        active_window_ns: float = 2.0e7,
        lru_sample_stride: int = 16,
        lru_snapshot_interval_accesses: int = 1_500_000,
        headroom_fraction: float = 0.10,
        seed: int = 0,
    ):
        super().__init__(scan_period_accesses, window_fraction, seed)
        self.active_window_ns = float(active_window_ns)
        self.lru_sample_stride = max(1, int(lru_sample_stride))
        self.lru_snapshot_interval_accesses = int(lru_snapshot_interval_accesses)
        if not 0.0 <= headroom_fraction < 1.0:
            raise ValueError(
                f"headroom_fraction must be in [0, 1), got {headroom_fraction}"
            )
        self.headroom_fraction = float(headroom_fraction)
        self._last_fault_ns: np.ndarray | None = None
        self._last_ref_ns: np.ndarray | None = None
        self._lru_snapshot: np.ndarray | None = None
        self._accesses_since_snapshot = 0

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        total = machine.config.total_capacity_pages
        self._last_fault_ns = np.full(total, -np.inf, dtype=np.float64)
        # Plain (non-MGLRU) LRU recency from page reference bits: a
        # sparser, staler sample than AutoNUMA's generation walks.
        # -inf = never referenced (so a fresh page is never "active").
        self._last_ref_ns = np.full(total, -np.inf, dtype=np.float64)
        # Demotion works off a periodic snapshot of the LRU ordering:
        # the active/inactive lists lag real access recency, so
        # recently-hot (even just-promoted) pages can sit at the
        # inactive tail and get demoted again -- the ping-pong the
        # paper blames for TPP's poor low-capacity behaviour.
        self._lru_snapshot = self._last_ref_ns.copy()

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.scanner is not None and self._last_fault_ns is not None
        overhead = 0.0

        # Faults first: activation is judged against recency recorded
        # in *earlier* quanta, not this batch's own touches.
        assert self._last_ref_ns is not None and self._lru_snapshot is not None
        faults = self.scanner.observe(batch, now_ns)
        if faults.count:
            overhead += self.scanner.overhead_ns(faults.count)
            # Promote iff the faulted page is on the active LRU list,
            # i.e. it was referenced recently (before this fault).
            # Every active page is treated equally however hot it is --
            # the inaccuracy the paper attributes to TPP.
            previous = np.maximum(
                self._last_fault_ns[faults.page_ids],
                self._last_ref_ns[faults.page_ids],
            )
            active = faults.page_ids[(now_ns - previous) < self.active_window_ns]
            self._last_fault_ns[faults.page_ids] = now_ns
            # No rate limit: TPP makes room for every active faulted page.
            candidates = active[self.machine.placement_of(active) == CXL_TIER]
            overhead += self._promote_making_room(candidates)[0]

        # Reference-bit LRU sampling (coarser than AutoNUMA's MGLRU).
        # The scatter writes a constant: repeated pages need no dedupe.
        touched = batch.strided_pages(self.lru_sample_stride)
        if touched.size:
            self._last_ref_ns[touched] = now_ns
            overhead += 2_000.0
        self._accesses_since_snapshot += batch.num_accesses
        if self._accesses_since_snapshot >= self.lru_snapshot_interval_accesses:
            self._lru_snapshot = self._last_ref_ns.copy()
            self._accesses_since_snapshot = 0
            overhead += 20_000.0  # LRU list rebalancing pass

        overhead += self._scan_ticks(batch, now_ns)

        # TPP's signature: keep an allocation headroom free on the top
        # tier by demoting proactively, not just on promotion pressure.
        headroom = int(
            self.headroom_fraction * self.machine.config.local_capacity_pages
        )
        deficit = headroom - self.machine.local_free_pages
        if deficit > 0:
            overhead += self._demote_coldest_k(deficit)

        self.stats.overhead_ns += overhead
        return overhead

    # -- demotion (plain LRU on the snapshot) --------------------------------------

    def _coldest(self, local_pages: np.ndarray, k: int) -> np.ndarray:
        assert self._lru_snapshot is not None
        return np.argpartition(self._lru_snapshot[local_pages], k - 1)[:k]
