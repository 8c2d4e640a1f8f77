"""CBF increment coalescing (paper Section V-C(c)).

Memory access distributions are skewed, so a batch of PEBS samples hits
few distinct pages many times.  Instead of calling ``increment`` once
per sample, FreqTier aggregates a batch in a hash table and issues one
``increase(page, amount)`` per *unique* page, cutting CBF slot accesses
by ~4x on the paper's workloads.

:class:`SampleCoalescer` implements that aggregation and keeps the
counters needed to reproduce the 4x figure
(``benchmarks/test_ablation_coalescing.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cbf.cbf import CountingBloomFilter
from repro.state.codec import Stateful


@dataclass
class CoalescingStats(Stateful):
    """Raw-vs-coalesced access accounting."""

    _state_fields = ("samples_in", "unique_increments_out")

    samples_in: int = 0
    unique_increments_out: int = 0

    @property
    def reduction_factor(self) -> float:
        """How many CBF update calls coalescing saved (paper reports ~4x)."""
        if self.unique_increments_out == 0:
            return 1.0
        return self.samples_in / self.unique_increments_out


class SampleCoalescer(Stateful):
    """Aggregates a batch of page-access samples before CBF insertion."""

    #: Aggregation counters only -- the CBF checkpoints itself.
    _state_fields = ("stats",)

    def __init__(self, cbf: CountingBloomFilter):
        self.cbf = cbf
        self.stats = CoalescingStats()

    def ingest(self, page_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coalesce ``page_ids`` and apply them to the CBF.

        Returns ``(unique_pages, new_frequencies)`` -- the estimated
        frequency of each unique page after the batch is applied, which
        the promotion policy compares against the hot threshold
        (paper Algorithm 1, batched form).
        """
        arr = np.asarray(page_ids, dtype=np.uint64)
        if arr.size == 0:
            return (
                np.zeros(0, dtype=np.uint64),
                np.zeros(0, dtype=np.int64),
            )
        uniq, counts = np.unique(arr, return_counts=True)
        freqs = self.cbf.increase(uniq, counts)
        self.stats.samples_in += int(arr.size)
        self.stats.unique_increments_out += int(uniq.size)
        return uniq, freqs
