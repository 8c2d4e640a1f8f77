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
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.sampling.recency import HintFaultScanner


class AutoNUMA(TieringPolicy):
    """Hint-fault latency promotion + MGLRU-recency demotion."""

    name = "AutoNUMA"
    _state_fields = TieringPolicy._state_fields + (
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
        super().__init__()
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError(
                f"window_fraction must be in (0, 1], got {window_fraction}"
            )
        self.scan_period_accesses = int(scan_period_accesses)
        self.window_fraction = float(window_fraction)
        self.hot_threshold_ns = float(initial_hot_threshold_ns)
        self.rate_limit_pages = int(rate_limit_pages_per_window)
        self.rate_window_accesses = int(rate_window_accesses)
        self.mglru_sample_stride = max(1, int(mglru_sample_stride))
        self.seed = int(seed)
        self.scanner: HintFaultScanner | None = None
        self._last_seen_ns: np.ndarray | None = None
        # MGLRU generations: pages referenced across several recent
        # aging windows climb to older ("younger" in kernel terms =
        # hotter) generations, a coarse frequency signal layered on
        # recency.  Demotion evicts generation 0 first.
        self._generation: np.ndarray | None = None
        self._seen_this_window: np.ndarray | None = None
        self._accesses_since_scan = 0
        self._accesses_in_rate_window = 0
        self._promoted_in_rate_window = 0

    #: Number of MGLRU generations (the kernel uses 4).
    MAX_GENERATION = 3

    # -- lifecycle --------------------------------------------------------

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        total = machine.config.total_capacity_pages
        window_pages = max(16, int(self.window_fraction * total))
        self.scanner = HintFaultScanner(
            total_pages=total, window_pages=window_pages, seed=self.seed
        )
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

        # Periodic address-space scan (unmap the next window) at the
        # end of the quantum.
        self._accesses_since_scan += batch.num_accesses
        while self._accesses_since_scan >= self.scan_period_accesses:
            self.scanner.scan_tick(now_ns)
            self._accesses_since_scan -= self.scan_period_accesses
            overhead += 10_000.0  # one scan pass over the window PTEs

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
        machine = self.machine
        hot = faulted[latencies_ns < self.hot_threshold_ns]
        if hot.size == 0:
            return 0.0
        placement = machine.placement_of(hot)
        candidates = hot[placement == CXL_TIER]
        # Hard rate limit: the kernel drops promotions beyond the
        # per-window migration budget regardless of the threshold.
        budget = self.rate_limit_pages - self._promoted_in_rate_window
        if budget <= 0:
            return 0.0
        candidates = candidates[:budget]
        if candidates.size == 0:
            return 0.0
        overhead = 0.0
        if machine.below_promo_wmark() or machine.local_free_pages < candidates.size:
            overhead += self._demote_cold(
                max(machine.demotion_deficit_pages(), int(candidates.size))
            )
        promoted = self._promote_pages(candidates).num_moved
        if promoted:
            overhead += 5_000.0  # move_pages syscall
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

    def _demote_cold(self, num_pages: int) -> float:
        assert self._last_seen_ns is not None and self._generation is not None
        machine = self.machine
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        if local_pages.size == 0 or num_pages <= 0:
            return 0.0
        num_pages = min(num_pages, int(local_pages.size))
        # Rank by generation first (coarse frequency), recency second.
        # Generations dominate any plausible timestamp (ns ~ 1e12).
        rank = (
            self._generation[local_pages].astype(np.float64) * 1e15
            + self._last_seen_ns[local_pages]
        )
        coldest_idx = np.argpartition(rank, num_pages - 1)[:num_pages]
        demoted = self._demote_pages(local_pages[coldest_idx]).num_moved
        if demoted:
            return 5_000.0 + demoted * 50.0  # syscall + LRU bookkeeping
        return 0.0
