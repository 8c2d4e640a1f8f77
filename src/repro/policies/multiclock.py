"""MULTI-CLOCK (related work, paper Section IX-a).

MULTI-CLOCK (Maruf et al., HPCA'22) differentiates pages accessed
exactly once from pages accessed more than once, but treats all
multi-access pages equally -- the coarse two-level frequency signal
the paper contrasts with FreqTier's full frequency distribution.

Included as a related-work extension baseline: PEBS-sampled, promoting
pages on their second observed access, demoting pages with at most one
observed access since the last clock sweep.
"""

from __future__ import annotations

import numpy as np

from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER
from repro.policies.base import PEBSPolicy
from repro.sampling.events import AccessBatch


class MultiClock(PEBSPolicy):
    """Two-level (once vs many) access classification."""

    name = "MULTI-CLOCK"
    _state_fields = PEBSPolicy._state_fields + (
        "pebs",
        "_seen",
        "_samples_since_sweep",
    )

    def __init__(
        self,
        sample_batch_size: int = 10_000,
        sweep_interval_samples: int = 200_000,
        pebs_base_period: int = 64,
        seed: int = 0,
    ):
        super().__init__()
        self.sample_batch_size = int(sample_batch_size)
        self.sweep_interval_samples = int(sweep_interval_samples)
        self.pebs_base_period = int(pebs_base_period)
        self.seed = int(seed)
        # 0 = unseen, 1 = seen once, 2 = seen multiple times.
        self._seen: np.ndarray | None = None
        self._samples_since_sweep = 0

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        self._attach_pebs(self.pebs_base_period, self.seed)
        self._seen = np.zeros(machine.config.total_capacity_pages, dtype=np.int8)

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.pebs is not None and self._seen is not None
        overhead = self.pebs.observe(batch)
        if self.pebs.pending_samples >= self.sample_batch_size:
            overhead += self._process_samples(now_ns)
        self.stats.overhead_ns += overhead
        return overhead

    def _process_samples(self, now_ns: float) -> float:
        page_ids, drained = self._drain_samples(now_ns)
        if page_ids.size == 0:
            return 0.0
        pages, counts = np.unique(page_ids, return_counts=True)
        prior = self._seen[pages]
        new_state = np.minimum(prior + np.minimum(counts, 2), 2).astype(np.int8)
        self._seen[pages] = new_state
        overhead = pages.size * 30.0

        # Promote pages that crossed into "accessed more than once",
        # capped at half the local tier per round.
        multi = pages[new_state >= 2]
        multi = multi[: max(self.machine.config.local_capacity_pages // 2, 1)]
        if multi.size:
            candidates = multi[self.machine.placement_of(multi) == CXL_TIER]
            overhead += self._promote_making_room(candidates)[0]

        self._samples_since_sweep += drained
        if self._samples_since_sweep >= self.sweep_interval_samples:
            # Clock sweep: everyone's classification resets.
            self._seen[:] = 0
            self._samples_since_sweep = 0
        return overhead

    def _coldest(self, local_pages: np.ndarray, k: int) -> np.ndarray:
        """Unseen local pages first, then those seen once this sweep."""
        assert self._seen is not None
        return np.argsort(self._seen[local_pages], kind="stable")[:k]
