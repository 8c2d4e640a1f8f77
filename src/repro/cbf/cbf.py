"""Counting Bloom filter with conservative updates and aging.

This is the core probabilistic frequency tracker of FreqTier (paper
Sections IV-B and V-A).  Unlike a hash table, the CBF does not store
keys; hash collisions are allowed and their likelihood is controlled by
the array size.  ``GET`` returns the minimum of the ``k`` counters a key
maps to; ``INCREMENT`` raises only the minimal counters (conservative
update, which provably never undercounts and reduces overcounting).

Aging divides every counter by two (paper Section V-A, after TinyLFU
and HeMem) to keep frequencies fresh.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import accel
from repro.cbf.counters import PackedCounterArray
from repro.state.codec import Stateful


@dataclass
class CBFStats(Stateful):
    """Operation counters for overhead accounting and the coalescing study."""

    _state_fields = ("gets", "increments", "slot_accesses", "agings")

    gets: int = 0
    increments: int = 0
    #: Individual counter-slot touches (the metric the coalescing
    #: optimization reduces by ~4x, paper Section V-C(c)).
    slot_accesses: int = 0
    agings: int = 0


class CountingBloomFilter(Stateful):
    """Classic counting Bloom filter over 64-bit keys (page ids).

    Parameters
    ----------
    num_counters:
        Size of the counter array (``N`` in the paper).
    num_hashes:
        Number of hash functions (``k`` in the paper, default 3 as in
        the paper's Figure 5 example).
    bits:
        Counter width; the paper defaults to 4 bits (max count 15).
    seed:
        Hash-family seed; distinct seeds give independent filters.

    Aging happens only on explicit :meth:`age` calls; the policies
    that own a filter (FreqTier, HeMem) run their own aging clocks.
    """

    _state_fields = ("_counters", "stats")

    def __init__(
        self,
        num_counters: int,
        num_hashes: int = 3,
        bits: int = 4,
        seed: int = 0,
    ):
        if num_hashes < 1:
            raise ValueError(f"num_hashes must be >= 1, got {num_hashes}")
        self.num_counters = int(num_counters)
        self.num_hashes = int(num_hashes)
        self.bits = int(bits)
        self.seed = int(seed)
        self._counters = PackedCounterArray(self.num_counters, bits=bits)
        self.stats = CBFStats()

    # -- sizing / introspection ----------------------------------------

    @property
    def max_count(self) -> int:
        """Largest representable frequency (``2**bits - 1``)."""
        return self._counters.max_value

    @property
    def nbytes(self) -> int:
        """Memory footprint of the counter array in bytes."""
        return self._counters.nbytes

    # -- key -> slot mapping --------------------------------------------

    def _indices(self, keys: np.ndarray) -> np.ndarray:
        """Shape (len(keys), k) slot indices; subclasses override."""
        return accel.classic_indices(
            keys, self.num_hashes, self.num_counters, self.seed
        )

    # -- queries ---------------------------------------------------------

    def get(self, keys: np.ndarray | int) -> np.ndarray | int:
        """Estimated frequency for each key (min over its ``k`` counters)."""
        scalar = np.isscalar(keys)
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        idx = self._indices(arr)
        # Hash outputs are already reduced into [0, num_counters), so
        # the packed array's bounds scan is skipped on this hot path.
        values = self._counters.get(idx, check=False).min(axis=1)
        self.stats.gets += len(arr)
        self.stats.slot_accesses += idx.size
        return int(values[0]) if scalar else values

    def slot_indices(self, keys: np.ndarray) -> np.ndarray:
        """Shape ``(len(keys), k)`` slot indices of ``keys``.

        Indices depend only on the filter's geometry and seed (both
        fixed at construction), so callers querying a *static* key set
        repeatedly -- e.g. the demotion scan's address-space chunks --
        may compute them once and replay through
        :meth:`get_by_indices`, skipping the per-call hashing.
        """
        return self._indices(np.asarray(keys, dtype=np.uint64))

    def get_by_indices(self, idx: np.ndarray) -> np.ndarray:
        """Frequencies for precomputed :meth:`slot_indices` rows."""
        values = self._counters.get(idx, check=False).min(axis=1)
        self.stats.gets += idx.shape[0]
        self.stats.slot_accesses += idx.size
        return values

    # -- updates ----------------------------------------------------------

    def increment(self, keys: np.ndarray | int) -> np.ndarray:
        """Record one access per key; returns the new estimated frequencies.

        Equivalent to ``increase(keys, 1)`` for unique keys.  Duplicate
        keys in one call are processed as separate accesses.
        """
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        return self.increase(arr, np.ones(len(arr), dtype=np.int64))

    def increase(
        self, keys: np.ndarray, amounts: np.ndarray | int
    ) -> np.ndarray:
        """Conservative bulk update: add ``amounts[i]`` accesses to key ``i``.

        This is the ``increase_frequency(page, amount)`` primitive that
        increment coalescing targets (paper Section V-C(c)).  Returns
        the new estimated frequency of each key.
        """
        arr = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
        amt = np.broadcast_to(
            np.asarray(amounts, dtype=np.int64), arr.shape
        ).copy()
        if arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        # Coalesce duplicate keys within the call so conservative update
        # semantics hold for the aggregate amount.
        uniq, inverse = np.unique(arr, return_inverse=True)
        totals = np.zeros(len(uniq), dtype=np.int64)
        np.add.at(totals, inverse, amt)

        idx = self._indices(uniq)  # (u, k); in-range by construction
        # Conservative update via scatter-max: a counter rises to the
        # largest target among the keys mapping to it this batch and
        # never falls, so counters already above their key's target
        # (inflated by other keys) are untouched -- no sort needed to
        # order colliding writes.  min-read + scatter-max + readback run
        # as one fused kernel (repro.accel).
        per_uniq = self._counters.fused_update(idx, totals)

        self.stats.increments += int(amt.sum())
        self.stats.slot_accesses += idx.size * 2  # read + write pass

        # Frequency readback: ``fused_update`` already returned the
        # post-update min per unique key against the fully updated
        # store; map it back through ``inverse``.
        return per_uniq[inverse].reshape(arr.shape)

    def age(self) -> None:
        """Halve all counters (keeps frequencies fresh, paper Section V-A)."""
        self._counters.halve_all()
        self.stats.agings += 1

    def clear(self) -> None:
        """Reset every counter to zero."""
        self._counters = PackedCounterArray(self.num_counters, bits=self.bits)

    # -- analysis helpers --------------------------------------------------

    def counter_histogram(self) -> np.ndarray:
        """Histogram of raw counter values, length ``max_count + 1``.

        Used to reproduce the paper's Figure 14 frequency CDF, and by
        the threshold controller once per processing round -- served
        from the packed store's byte histogram without unpacking.
        """
        return self._counters.value_histogram()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(num_counters={self.num_counters}, "
            f"num_hashes={self.num_hashes}, bits={self.bits}, "
            f"nbytes={self.nbytes})"
        )
