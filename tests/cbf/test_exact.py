"""Tests for the exact frequency tracker (HeMem's hash table)."""

import numpy as np
import pytest

from repro.cbf.exact import ExactFrequencyTracker, HEMEM_BYTES_PER_PAGE


@pytest.fixture
def tracker() -> ExactFrequencyTracker:
    return ExactFrequencyTracker()


class TestCounting:
    def test_exactness(self, tracker):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 200, size=2_000).astype(np.uint64)
        tracker.increment(keys)
        uniq, truth = np.unique(keys, return_counts=True)
        assert np.array_equal(tracker.get(uniq), truth)

    def test_unseen_key_is_zero(self, tracker):
        assert tracker.get(999) == 0

    def test_scalar_and_array_get(self, tracker):
        tracker.increment(np.array([4, 4], dtype=np.uint64))
        assert tracker.get(4) == 2
        assert np.array_equal(tracker.get(np.array([4, 5], dtype=np.uint64)), [2, 0])

    def test_increase(self, tracker):
        out = tracker.increase(np.array([1, 2], dtype=np.uint64), np.array([10, 20]))
        assert np.array_equal(out, [10, 20])

    def test_max_count_cap(self):
        t = ExactFrequencyTracker(max_count=15)
        t.increase(np.array([1], dtype=np.uint64), 100)
        assert t.get(1) == 15

    def test_key_past_the_dense_array_raises(self, tracker):
        with pytest.raises(ValueError, match="key 4194304"):
            tracker.increment(np.array([3, 1 << 22], dtype=np.uint64))
        assert tracker.num_entries == 0

    def test_negative_amount_raises(self, tracker):
        with pytest.raises(ValueError, match="amounts"):
            tracker.increase(np.array([1, 2], dtype=np.uint64), np.array([3, -1]))
        assert tracker.num_entries == 0


class TestCheckpoint:
    def test_round_trip_keeps_counts_and_growth(self, tracker):
        tracker.increase(np.array([5, 900], dtype=np.uint64), np.array([3, 7]))
        restored = ExactFrequencyTracker()
        restored.load_state(tracker.state_dict())
        assert dict(restored.items()) == {5: 3, 900: 7}
        assert restored._dense.size == tracker._dense.size


class TestAging:
    def test_halves_counts(self, tracker):
        tracker.increase(np.array([1], dtype=np.uint64), 9)
        tracker.age()
        assert tracker.get(1) == 4

    def test_drops_zeroed_entries(self, tracker):
        tracker.increment(np.array([1], dtype=np.uint64))
        tracker.age()
        assert tracker.get(1) == 0
        assert tracker.num_entries == 0

    def test_memory_shrinks_after_aging(self, tracker):
        tracker.increment(np.arange(100, dtype=np.uint64))
        before = tracker.nbytes
        tracker.age()  # all counts were 1 -> all dropped
        assert tracker.nbytes < before


class TestMemoryAccounting:
    def test_bytes_per_entry_default_is_hemem(self, tracker):
        tracker.increment(np.arange(10, dtype=np.uint64))
        assert tracker.nbytes == 10 * HEMEM_BYTES_PER_PAGE

    def test_paper_scale_overhead(self):
        """Paper Section VII-C: 267 GB of 4K pages -> ~11 GB of metadata."""
        pages_267gb = 267 * (1 << 30) // 4096
        nbytes = pages_267gb * HEMEM_BYTES_PER_PAGE
        assert 10 * (1 << 30) < nbytes < 12 * (1 << 30)

    def test_clear(self, tracker):
        tracker.increment(np.arange(5, dtype=np.uint64))
        tracker.clear()
        assert tracker.num_entries == 0
        assert tracker.nbytes == 0


class TestHistogram:
    def test_histogram_clamps(self, tracker):
        tracker.increase(np.array([1], dtype=np.uint64), 100)
        tracker.increment(np.array([2], dtype=np.uint64))
        hist = tracker.counter_histogram(max_value=15)
        assert hist[15] == 1
        assert hist[1] == 1
        assert hist.sum() == 2
