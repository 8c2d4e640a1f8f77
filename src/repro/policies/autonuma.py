"""AutoNUMA: the Linux kernel's recency-based tiering (paper Section II-C1).

Mechanism reproduced (kernel v6.x with the TPP-derived tiering
patches merged, per the paper's Section VI-B):

- a scanner periodically unmaps one *scan window* of pages; the next
  access to an unmapped page raises a hint fault;
- a faulted page is promoted when its *hint fault latency* (time since
  unmap) is below the hot threshold;
- the hot threshold is adjusted dynamically so promotion traffic
  tracks a rate limit (the kernel's ``numa_balancing_rate_limit``
  behaviour);
- demotion is MGLRU-style: when free local memory falls below the
  promotion watermark, the coldest local pages by (fault-derived)
  recency are demoted until the demotion watermark is restored.

The fundamental limitation the paper exploits survives intact: only
the *first* access after an unmap is observed, so access frequency is
invisible (Fig. 3) -- one lucky access promotes a cold page, and a hot
page whose accesses miss the window stays put.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER
from repro.policies.base import HintFaultPolicy
from repro.sampling.events import AccessBatch


class AutoNUMA(HintFaultPolicy):
    """Hint-fault latency promotion + MGLRU-recency demotion."""

    name = "AutoNUMA"
    _state_fields = HintFaultPolicy._state_fields + (
        "hot_threshold_ns",
        "scanner",
        "_last_seen_ns",
        "_generation",
        "_seen_this_window",
        "_accesses_since_scan",
        "_accesses_in_rate_window",
        "_promoted_in_rate_window",
    )

    def __init__(
        self,
        scan_period_accesses: int = 25_000,
        window_fraction: float = 0.01,
        initial_hot_threshold_ns: float = 1.0e6,
        rate_limit_pages_per_window: int = 2_000,
        rate_window_accesses: int = 1_000_000,
        mglru_sample_stride: int = 16,
        seed: int = 0,
    ):
        super().__init__(scan_period_accesses, window_fraction, seed)
        self.hot_threshold_ns = float(initial_hot_threshold_ns)
        self.rate_limit_pages = int(rate_limit_pages_per_window)
        self.rate_window_accesses = int(rate_window_accesses)
        self.mglru_sample_stride = max(1, int(mglru_sample_stride))
        self._last_seen_ns: np.ndarray | None = None
        # MGLRU generations: pages referenced across several recent
        # aging windows climb to older ("younger" in kernel terms =
        # hotter) generations, a coarse frequency signal layered on
        # recency.  Demotion evicts generation 0 first.
        self._generation: np.ndarray | None = None
        self._seen_this_window: np.ndarray | None = None
        self._accesses_in_rate_window = 0
        self._promoted_in_rate_window = 0

    #: Number of MGLRU generations (the kernel uses 4).
    MAX_GENERATION = 3
    DEMOTE_PAGE_NS = 50.0  # LRU bookkeeping per demoted page

    # -- lifecycle --------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        total = machine.config.total_capacity_pages
        # Fault-derived recency; 0 = never observed (coldest).
        self._last_seen_ns = np.zeros(total, dtype=np.float64)
        self._generation = np.zeros(total, dtype=np.int8)
        self._seen_this_window = np.zeros(total, dtype=bool)

    # -- main hook ----------------------------------------------------------

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.scanner is not None and self._last_seen_ns is not None
        overhead = 0.0

        # Hint faults raised by this batch (before this batch's scan
        # tick and generation walk touch the bookkeeping: the fault
        # happened first in program order, so its latency is measured
        # against the *previous* unmap).
        faults = self.scanner.observe(batch, now_ns)
        if faults.count:
            overhead += self.scanner.overhead_ns(faults.count)
            overhead += self._maybe_promote(faults.page_ids, faults.latencies_ns)
            self._last_seen_ns[faults.page_ids] = now_ns

        # MGLRU generation update: the kernel's page-table walks see
        # accessed bits for *all* resident pages, not just faulting
        # ones.  Model it as a strided subsample of the pages touched
        # this batch (an accessed bit records "touched since last
        # walk", so subsampling loses little).  Both scatters write a
        # constant, so repeated pages need no dedupe.
        touched = batch.strided_pages(self.mglru_sample_stride)
        if touched.size:
            self._last_seen_ns[touched] = now_ns
            self._seen_this_window[touched] = True
            overhead += 2_000.0  # one generation-walk slice

        # Periodic address-space scan (unmap the next window).
        overhead += self._scan_ticks(batch, now_ns)

        # Promotion-rate-limit controller (kernel hot-threshold tuning).
        self._accesses_in_rate_window += batch.num_accesses
        if self._accesses_in_rate_window >= self.rate_window_accesses:
            self._adjust_threshold()

        self.stats.overhead_ns += overhead
        return overhead

    # -- promotion ---------------------------------------------------------------

    def _maybe_promote(
        self, faulted: np.ndarray, latencies_ns: np.ndarray
    ) -> float:
        hot = faulted[latencies_ns < self.hot_threshold_ns]
        if hot.size == 0:
            return 0.0
        candidates = hot[self.machine.placement_of(hot) == CXL_TIER]
        # Hard rate limit: the kernel drops promotions beyond the
        # per-window migration budget regardless of the threshold.
        budget = self.rate_limit_pages - self._promoted_in_rate_window
        if budget <= 0:
            return 0.0
        overhead, promoted = self._promote_making_room(candidates[:budget])
        self._promoted_in_rate_window += promoted
        return overhead

    def _adjust_threshold(self) -> None:
        """Track the promotion rate limit by tuning the hot threshold."""
        assert self._generation is not None and self._seen_this_window is not None
        promoted = self._promoted_in_rate_window
        if promoted >= self.rate_limit_pages:
            # The hard cap was hit: tighten so fewer pages qualify.
            self.hot_threshold_ns *= 0.75
        elif promoted < self.rate_limit_pages // 2:
            self.hot_threshold_ns *= 1.25
        self.hot_threshold_ns = float(np.clip(self.hot_threshold_ns, 1e3, 1e10))
        self._accesses_in_rate_window = 0
        self._promoted_in_rate_window = 0
        # MGLRU aging: referenced pages climb a generation, idle pages
        # fall one.
        seen = self._seen_this_window
        self._generation[seen] = np.minimum(
            self._generation[seen] + 1, self.MAX_GENERATION
        )
        self._generation[~seen] = np.maximum(self._generation[~seen] - 1, 0)
        self._seen_this_window[:] = False

    # -- demotion (MGLRU-recency) ----------------------------------------------------

    def _coldest(self, local_pages: np.ndarray, k: int) -> np.ndarray:
        assert self._last_seen_ns is not None and self._generation is not None
        # Rank by generation first (coarse frequency), recency second.
        # Generations dominate any plausible timestamp (ns ~ 1e12).
        rank = (
            self._generation[local_pages].astype(np.float64) * 1e15
            + self._last_seen_ns[local_pages]
        )
        return np.argpartition(rank, k - 1)[:k]
