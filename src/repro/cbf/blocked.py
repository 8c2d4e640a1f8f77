"""Blocked counting Bloom filter (paper Section V-C(b)).

In the classic CBF the ``k`` counters for a page are scattered across
the whole array, so one lookup can touch up to ``k`` cache lines.  The
blocked variant (after Caffeine's frequency sketch) confines all of a
key's counters to one 64-byte block -- a single cache line -- bounding
the lookup to one cache/DRAM access.  Part of one hash selects the
block; further hash bits select the ``k`` counter slots inside it.

The paper reports negligible accuracy loss versus the classic CBF; the
``benchmarks/test_ablation_blocked_cbf.py`` bench reproduces that
comparison, and :attr:`cache_lines_per_access` exposes the 1-vs-k
access-bound difference the optimization exists for.
"""

from __future__ import annotations

import numpy as np

from repro import accel
from repro.cbf.cbf import CountingBloomFilter

#: Size of one block in bytes = one x86 cache line.
BLOCK_BYTES = 64


class BlockedCountingBloomFilter(CountingBloomFilter):
    """CBF variant whose per-key counters share one 64-byte block.

    The counter array is partitioned into blocks of ``BLOCK_BYTES``
    bytes; with 4-bit counters each block holds 128 counters.  The
    total size is rounded up to a whole number of blocks.
    """

    def __init__(
        self,
        num_counters: int,
        num_hashes: int = 3,
        bits: int = 4,
        seed: int = 0,
    ):
        counters_per_block = BLOCK_BYTES * 8 // bits
        if num_counters < counters_per_block:
            num_counters = counters_per_block
        num_blocks = -(-int(num_counters) // counters_per_block)
        super().__init__(
            num_blocks * counters_per_block,
            num_hashes=num_hashes,
            bits=bits,
            seed=seed,
        )
        self.counters_per_block = counters_per_block
        self.num_blocks = num_blocks

    @property
    def cache_lines_per_access(self) -> int:
        """Worst-case cache lines touched per GET/INCREMENT (always 1)."""
        return 1

    def _indices(self, keys: np.ndarray) -> np.ndarray:
        # One hash picks the block, independent hashes pick in-block
        # slots; the per-seed hash passes are fused in the kernel.
        return accel.blocked_indices(
            keys,
            self.seed,
            self.num_blocks,
            self.counters_per_block,
            self.num_hashes,
        )
