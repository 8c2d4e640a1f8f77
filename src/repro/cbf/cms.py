"""Count-Min Sketch: the non-conservative alternative to the CBF.

FreqTier's CBF uses *conservative update* (only the minimal counters
rise).  The classic Count-Min Sketch increments **all** ``k`` counters
per update -- simpler, but every collision inflates every colliding
key, so overcounting grows with load.  Included to quantify the
conservative-update design choice
(``benchmarks/test_ablation_conservative_update.py``).
"""

from __future__ import annotations

import numpy as np

from repro.cbf.cbf import CountingBloomFilter


class CountMinSketch(CountingBloomFilter):
    """CBF-compatible tracker with non-conservative (all-counter) updates."""

    def increase(
        self, keys: np.ndarray, amounts: np.ndarray | int
    ) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        amt = np.broadcast_to(
            np.asarray(amounts, dtype=np.int64), arr.shape
        ).copy()
        if arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        uniq, inverse = np.unique(arr, return_inverse=True)
        totals = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(totals, inverse, amt)

        idx = self._indices(uniq)  # (u, k)
        # All k counters take the full amount (the CMS update rule).
        flat_idx = idx.ravel()
        flat_amt = np.repeat(totals, idx.shape[1])
        self._counters.add_saturating(flat_idx, flat_amt)

        self.stats.increments += int(amt.sum())
        self.stats.slot_accesses += idx.size * 2

        return np.minimum(
            self._counters.get(self._indices(arr)).min(axis=1), self.max_count
        )
