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
from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch
from repro.sampling.pebs import PEBSSampler, SamplingLevel


class MultiClock(TieringPolicy):
    """Two-level (once vs many) access classification."""

    name = "MULTI-CLOCK"
    _state_fields = TieringPolicy._state_fields + (
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
        self.pebs: PEBSSampler | None = None
        # 0 = unseen, 1 = seen once, 2 = seen multiple times.
        self._seen: np.ndarray | None = None
        self._samples_since_sweep = 0

    def attach(self, machine: Machine) -> None:
        super().attach(machine)
        self.pebs = PEBSSampler(base_period=self.pebs_base_period, seed=self.seed)
        self.pebs.set_level(SamplingLevel.HIGH)
        self.pebs.fault_injector = self.fault_injector
        self._seen = np.zeros(machine.config.total_capacity_pages, dtype=np.int8)

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        assert self.pebs is not None and self._seen is not None
        overhead = 0.0
        before = self.pebs.total_samples
        self.pebs.observe(batch)
        overhead += self.pebs.overhead_ns(self.pebs.total_samples - before)
        if self.pebs.pending_samples >= self.sample_batch_size:
            overhead += self._process_samples()
        self.stats.overhead_ns += overhead
        return overhead

    def _process_samples(self) -> float:
        assert self.pebs is not None and self._seen is not None
        samples = self.pebs.drain()
        if samples.num_samples == 0:
            return 0.0
        page_ids = self._filter_corrupt_sample_ids(samples.page_ids)
        if page_ids.size == 0:
            return 0.0
        self.stats.samples_processed += int(page_ids.size)
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

        self._samples_since_sweep += samples.num_samples
        if self._samples_since_sweep >= self.sweep_interval_samples:
            # Clock sweep: everyone's classification resets.
            self._seen[:] = 0
            self._samples_since_sweep = 0
        return overhead

    def _coldest(self, local_pages: np.ndarray, k: int) -> np.ndarray:
        """Unseen local pages first, then those seen once this sweep."""
        assert self._seen is not None
        return np.argsort(self._seen[local_pages], kind="stable")[:k]
