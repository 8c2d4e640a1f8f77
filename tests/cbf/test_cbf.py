"""Tests for the counting Bloom filter."""

import numpy as np
import pytest

from repro.cbf.cbf import CountingBloomFilter


@pytest.fixture
def cbf() -> CountingBloomFilter:
    return CountingBloomFilter(num_counters=4096, num_hashes=3, bits=4, seed=7)


class TestBasics:
    def test_fresh_filter_reads_zero(self, cbf):
        assert cbf.get(123) == 0
        assert np.all(cbf.get(np.arange(100, dtype=np.uint64)) == 0)

    def test_increment_then_get(self, cbf):
        cbf.increment(42)
        assert cbf.get(42) == 1

    def test_repeat_increments_accumulate(self, cbf):
        for __ in range(5):
            cbf.increment(42)
        assert cbf.get(42) == 5

    def test_duplicates_in_one_call_count_separately(self, cbf):
        cbf.increment(np.array([9, 9, 9], dtype=np.uint64))
        assert cbf.get(9) == 3

    def test_never_undercounts(self, cbf):
        # The conservative-update CBF may overcount but never
        # undercount (before saturation/aging).
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 500, size=3_000).astype(np.uint64)
        cbf.increment(keys)
        uniq, true_counts = np.unique(keys, return_counts=True)
        estimates = cbf.get(uniq)
        capped_truth = np.minimum(true_counts, cbf.max_count)
        assert np.all(estimates >= capped_truth)

    def test_saturates_at_max_count(self, cbf):
        for __ in range(30):
            cbf.increment(7)
        assert cbf.get(7) == cbf.max_count == 15

    def test_increase_bulk(self, cbf):
        keys = np.array([1, 2, 3], dtype=np.uint64)
        out = cbf.increase(keys, np.array([4, 5, 6]))
        assert np.array_equal(out, [4, 5, 6])
        assert cbf.get(2) == 5

    def test_increase_equivalent_to_increments(self):
        a = CountingBloomFilter(1024, seed=3)
        b = CountingBloomFilter(1024, seed=3)
        for __ in range(4):
            a.increment(99)
        b.increase(np.array([99], dtype=np.uint64), 4)
        assert a.get(99) == b.get(99)

    def test_empty_increase(self, cbf):
        out = cbf.increase(np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.int64))
        assert out.size == 0


class TestAging:
    def test_age_halves_counts(self, cbf):
        cbf.increase(np.array([5], dtype=np.uint64), 10)
        cbf.age()
        assert cbf.get(5) == 5

    def test_age_drops_ones_to_zero(self, cbf):
        cbf.increment(5)
        cbf.age()
        assert cbf.get(5) == 0


class TestCollisions:
    def test_small_filter_overcounts_under_pressure(self):
        # Saturate a tiny filter with *sequential* single-key inserts:
        # later keys see slots inflated by earlier colliders.
        cbf = CountingBloomFilter(num_counters=32, num_hashes=3, bits=8)
        for key in range(500):
            cbf.increment(key)
        estimates = cbf.get(np.arange(500, dtype=np.uint64))
        assert estimates.max() > 1  # collisions inflated someone

    def test_large_filter_is_accurate(self):
        cbf = CountingBloomFilter(num_counters=100_000, num_hashes=3, bits=8)
        keys = np.arange(1_000, dtype=np.uint64)
        for __ in range(3):
            cbf.increment(keys)
        estimates = cbf.get(keys)
        # At 1% load, nearly all estimates should be exact.
        assert np.mean(estimates == 3) > 0.99


class TestStatsAndIntrospection:
    def test_nbytes_matches_bit_packing(self):
        cbf = CountingBloomFilter(num_counters=1000, bits=4)
        assert cbf.nbytes == 500

    def test_stats_track_operations(self, cbf):
        cbf.increment(np.arange(10, dtype=np.uint64))
        cbf.get(np.arange(10, dtype=np.uint64))
        assert cbf.stats.increments == 10
        assert cbf.stats.gets == 10
        assert cbf.stats.slot_accesses > 0

    def test_counter_histogram_sums_to_size(self, cbf):
        cbf.increment(np.arange(100, dtype=np.uint64))
        hist = cbf.counter_histogram()
        assert hist.sum() == cbf.num_counters
        assert len(hist) == cbf.max_count + 1

    def test_clear(self, cbf):
        cbf.increment(np.arange(50, dtype=np.uint64))
        cbf.clear()
        assert np.all(cbf.get(np.arange(50, dtype=np.uint64)) == 0)

    def test_invalid_num_hashes(self):
        with pytest.raises(ValueError):
            CountingBloomFilter(64, num_hashes=0)


class TestConservativeUpdate:
    def test_colliding_key_does_not_lower_counter(self):
        """A slot shared by a hot and a cold key keeps the hot count."""
        cbf = CountingBloomFilter(num_counters=8, num_hashes=2, bits=8, seed=1)
        cbf.increase(np.array([1], dtype=np.uint64), 10)
        before = cbf.get(1)
        cbf.increment(np.array([2], dtype=np.uint64))
        assert cbf.get(1) >= before

    def test_batch_with_shared_slots_keeps_max(self):
        # Two keys in one batch may share a slot; neither may undercount.
        cbf = CountingBloomFilter(num_counters=4, num_hashes=2, bits=8, seed=0)
        keys = np.array([1, 2], dtype=np.uint64)
        cbf.increase(keys, np.array([7, 3]))
        assert cbf.get(1) >= 7
        assert cbf.get(2) >= 3

    def test_increase_matches_dense_reference(self):
        """The scatter-max increase equals the textbook conservative
        update: each key's slots rise to min-slot + total, never drop."""
        rng = np.random.default_rng(12)
        for trial in range(30):
            cbf = CountingBloomFilter(
                num_counters=int(rng.integers(8, 64)),
                num_hashes=int(rng.integers(1, 5)),
                bits=int(rng.choice([2, 4, 8])),
                seed=trial,
            )
            # Pre-load some state.
            cbf.increase(
                rng.integers(0, 40, size=20).astype(np.uint64),
                rng.integers(1, 5, size=20),
            )
            keys = rng.integers(0, 40, size=10).astype(np.uint64)
            counts = rng.integers(1, 6, size=10)
            idx = cbf._indices(keys)
            dense = cbf._counters.to_array()
            # Reference: per-key target = min(slots) + count, clamped;
            # each slot only ever raised, duplicates keep the max.
            uniq, inverse = np.unique(keys, return_inverse=True)
            totals = np.bincount(inverse, weights=counts).astype(np.int64)
            mins = dense[idx].min(axis=1)
            per_key_totals = totals[inverse]
            targets = np.minimum(mins + per_key_totals, cbf.max_count)
            for row, target in zip(idx, targets):
                np.maximum.at(dense, row, target)
            cbf.increase(keys, counts)
            np.testing.assert_array_equal(cbf._counters.to_array(), dense)
