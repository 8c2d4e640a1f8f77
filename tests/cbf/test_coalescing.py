"""Tests for CBF increment coalescing (Section V-C(c))."""

import numpy as np
import pytest

from repro.cbf.cbf import CountingBloomFilter
from repro.cbf.coalescing import SampleCoalescer


@pytest.fixture
def setup():
    cbf = CountingBloomFilter(num_counters=8192, num_hashes=3, bits=8, seed=2)
    return cbf, SampleCoalescer(cbf)


class TestCoalescing:
    def test_counts_match_uncoalesced(self, setup):
        cbf, coalescer = setup
        samples = np.array([5, 5, 5, 9, 9, 11], dtype=np.uint64)
        uniq, freqs = coalescer.ingest(samples)
        assert np.array_equal(uniq, [5, 9, 11])
        assert np.array_equal(freqs, [3, 2, 1])
        assert cbf.get(5) == 3

    def test_reduction_factor_on_skewed_batch(self, setup):
        __, coalescer = setup
        # Zipf-ish batch: one page dominates.
        samples = np.concatenate(
            [np.full(900, 1), np.arange(2, 102)]
        ).astype(np.uint64)
        coalescer.ingest(samples)
        # 1000 samples -> 101 unique increments: ~10x reduction.
        assert coalescer.stats.reduction_factor > 4.0

    def test_reduction_factor_uniform_batch_is_one(self, setup):
        __, coalescer = setup
        coalescer.ingest(np.arange(1_000, dtype=np.uint64))
        assert coalescer.stats.reduction_factor == pytest.approx(1.0)

    def test_stats_accumulate_across_batches(self, setup):
        __, coalescer = setup
        coalescer.ingest(np.array([1, 1], dtype=np.uint64))
        coalescer.ingest(np.array([2, 2], dtype=np.uint64))
        assert coalescer.stats.samples_in == 4
        assert coalescer.stats.unique_increments_out == 2

    def test_empty_batch(self, setup):
        __, coalescer = setup
        uniq, freqs = coalescer.ingest(np.zeros(0, dtype=np.uint64))
        assert uniq.size == 0
        assert freqs.size == 0

    def test_fewer_cbf_slot_accesses_than_per_sample(self):
        """The point of the optimization: ~4x fewer CBF update calls."""
        skewed = np.concatenate(
            [np.full(750, 1), np.full(150, 2), np.arange(3, 103)]
        ).astype(np.uint64)

        coalesced_cbf = CountingBloomFilter(8192, bits=8, seed=3)
        SampleCoalescer(coalesced_cbf).ingest(skewed)
        per_sample_cbf = CountingBloomFilter(8192, bits=8, seed=3)
        for s in skewed:
            per_sample_cbf.increment(int(s))

        assert (
            coalesced_cbf.stats.slot_accesses
            < per_sample_cbf.stats.slot_accesses / 4
        )
        # And the resulting counts agree.
        keys = np.array([1, 2, 50], dtype=np.uint64)
        assert np.array_equal(coalesced_cbf.get(keys), per_sample_cbf.get(keys))
