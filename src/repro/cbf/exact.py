"""Exact per-key frequency tracking (the hash-table alternative).

HeMem (paper Section II-C2) tracks page frequencies precisely in a hash
table, paying 168 bytes of metadata per page -- ~4% of a 267 GB
footprint, 110x FreqTier's CBF.  This module provides that tracker:

- for the :class:`~repro.policies.hemem.HeMem` baseline, and
- as the ground-truth oracle in the CBF accuracy studies.

Memory accounting uses the modeled per-entry cost (default HeMem's
168 bytes/page), not Python's actual overhead, so the paper's
Section VII-C comparison is reproducible.

The store is one dense counter array indexed by key (keys are page
ids in every consumer), so bulk updates and lookups are vectorized
instead of one dict operation per sample.  There is no spill: keys at
or above ``2**22`` (32 MB of counters) and negative amounts raise
ValueError.  Only keys with a non-zero count exist as entries; the
modeled footprint and :meth:`age` drop semantics are unchanged.
"""

from __future__ import annotations

import numpy as np

#: Per-page metadata HeMem maintains (paper Section VII-C).
HEMEM_BYTES_PER_PAGE = 168

#: Keys must stay below this (32 MB of int64 counters).
_DENSE_KEY_LIMIT = 1 << 22


class ExactFrequencyTracker:
    """Precise page -> access-count map with aging.

    Mirrors the :class:`~repro.cbf.cbf.CountingBloomFilter` interface
    (``get`` / ``increment`` / ``increase`` / ``age``) so policies and
    studies can swap trackers.
    """

    def __init__(
        self,
        bytes_per_entry: int = HEMEM_BYTES_PER_PAGE,
        max_count: int | None = None,
    ):
        self._dense = np.zeros(0, dtype=np.int64)
        self.bytes_per_entry = int(bytes_per_entry)
        self.max_count = max_count

    # -- sizing ----------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return int(np.count_nonzero(self._dense))

    @property
    def nbytes(self) -> int:
        """Modeled metadata footprint (entries x per-entry bytes)."""
        return self.num_entries * self.bytes_per_entry

    def _grow_dense(self, max_key: int) -> None:
        if max_key < self._dense.size:
            return
        grown = np.zeros(
            min(max(max_key + 1, 2 * self._dense.size), _DENSE_KEY_LIMIT),
            dtype=np.int64,
        )
        grown[: self._dense.size] = self._dense
        self._dense = grown

    # -- queries -----------------------------------------------------------

    def get(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Exact recorded frequency per key (0 if never seen)."""
        if np.isscalar(keys):
            key = int(keys)
            return int(self._dense[key]) if key < self._dense.size else 0
        arr = np.asarray(keys, dtype=np.uint64)
        if arr.size and int(arr.max()) < self._dense.size:
            return self._dense[arr]
        out = np.zeros(arr.size, dtype=np.int64)
        in_dense = arr < self._dense.size
        out[in_dense] = self._dense[arr[in_dense]]
        return out

    # -- updates -------------------------------------------------------------

    def increment(self, keys: np.ndarray | int) -> np.ndarray:
        """Record one access per key; duplicates count separately."""
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        return self.increase(arr, np.ones(len(arr), dtype=np.int64))

    def increase(self, keys: np.ndarray, amounts: np.ndarray | int) -> np.ndarray:
        """Add ``amounts[i]`` accesses to key ``i``; returns new counts.

        Duplicate keys accumulate sequentially, each occurrence seeing
        the running total so far -- exactly one hash-table update per
        sample, as HeMem performs it, but computed for the whole batch
        with a stable sort and segmented running sums.
        """
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        amt = np.broadcast_to(np.asarray(amounts, dtype=np.int64), arr.shape)
        n = arr.size
        out = np.empty(n, dtype=np.int64)
        if n == 0:
            return out
        max_key = int(arr.max())
        if max_key >= _DENSE_KEY_LIMIT:
            raise ValueError(f"key {max_key} >= {_DENSE_KEY_LIMIT}")
        if np.any(amt < 0):
            raise ValueError("amounts must be >= 0")
        self._grow_dense(max_key)
        # Keys are < 2**22, so ``key*n + position`` fits uint64 for any
        # batch that fits in memory and is unique per element;
        # quicksorting the composite reproduces the stable key order
        # several times cheaper than a stable argsort of the keys.
        comp = arr * np.uint64(n) + np.arange(n, dtype=np.uint64)
        comp.sort()
        order = (comp % np.uint64(n)).astype(np.int64)
        sk = comp // np.uint64(n)
        sa = amt[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(sk[1:], sk[:-1], out=new_group[1:])
        group_id = np.cumsum(new_group) - 1
        csum = np.cumsum(sa)
        # Running totals restarted at each group: subtract the stream
        # cumsum just before the group start, then add the stored base.
        start_offset = (csum - sa)[new_group]
        uniq = sk[new_group]
        running = csum - start_offset[group_id] + self._dense[uniq][group_id]
        if self.max_count is not None:
            # Amounts are non-negative here, so running totals are
            # monotone within a group and the per-step cap reduces to
            # an elementwise clamp.
            np.minimum(running, self.max_count, out=running)
        out[order] = running
        group_last = np.empty(uniq.size, dtype=np.int64)
        group_last[:-1] = np.nonzero(new_group)[0][1:] - 1
        group_last[-1] = n - 1
        self._dense[uniq] = running[group_last]
        return out

    def age(self) -> None:
        """Halve all counts, dropping entries that reach zero."""
        np.floor_divide(self._dense, 2, out=self._dense)

    def clear(self) -> None:
        self._dense[:] = 0

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> dict:
        """The dense counter array (it grows with the largest key, so
        its shape is not fixed as a declared field's must be)."""
        return {"counts": self._dense.copy()}

    def load_state(self, state: dict) -> None:
        self._dense = np.array(state["counts"], dtype=np.int64)

    # -- analysis -----------------------------------------------------------------

    def items(self):
        """Iterate ``(page, count)`` pairs (analysis/tests)."""
        for page in np.nonzero(self._dense)[0]:
            yield int(page), int(self._dense[page])

    def counter_histogram(self, max_value: int = 15) -> np.ndarray:
        """Histogram of counts clamped to ``max_value`` (Fig. 14 analogue)."""
        live = self._dense[self._dense > 0]
        return np.bincount(
            np.minimum(live, max_value), minlength=max_value + 1
        )[: max_value + 1].astype(np.int64)
