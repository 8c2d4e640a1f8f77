"""Tests for oracle placement analysis."""

import numpy as np
import pytest

from repro.analysis.oracle import (
    oracle_hit_ratio,
    page_access_counts,
    placement_efficiency,
)
from repro.sampling.events import AccessBatch


def batch_of(pages) -> AccessBatch:
    return AccessBatch(page_ids=np.asarray(pages), num_ops=1.0, cpu_ns=0.0)


class TestCounts:
    def test_counts(self):
        batches = [batch_of([0, 0, 1]), batch_of([0, 2])]
        counts = page_access_counts(batches, 4)
        assert np.array_equal(counts, [3, 1, 1, 0])


class TestOracleHitRatio:
    def test_exact_on_known_distribution(self):
        # Page 0: 6 accesses, page 1: 3, page 2: 1.
        batches = [batch_of([0] * 6 + [1] * 3 + [2])]
        assert oracle_hit_ratio(batches, 3, 1) == pytest.approx(0.6)
        assert oracle_hit_ratio(batches, 3, 2) == pytest.approx(0.9)
        assert oracle_hit_ratio(batches, 3, 3) == pytest.approx(1.0)

    def test_capacity_beyond_footprint(self):
        batches = [batch_of([0, 1])]
        assert oracle_hit_ratio(batches, 2, 100) == pytest.approx(1.0)

    def test_zero_capacity(self):
        assert oracle_hit_ratio([batch_of([0])], 1, 0) == 0.0

    def test_empty_stream(self):
        assert oracle_hit_ratio([], 10, 5) == 0.0


class TestEfficiency:
    def test_basic(self):
        assert placement_efficiency(0.45, 0.9) == pytest.approx(0.5)

    def test_capped_at_one(self):
        assert placement_efficiency(0.95, 0.9) == 1.0

    def test_zero_oracle(self):
        assert placement_efficiency(0.0, 0.0) == 1.0


class TestAgainstZipfTheory:
    def test_oracle_matches_zipf_mass(self):
        """The oracle over a Zipf stream equals the top-K access mass."""
        from repro.workloads.zipfian import ZipfianSampler

        z = ZipfianSampler(1000, 1.2, seed=3)
        batches = [batch_of(z.sample(50_000)) for __ in range(4)]
        oracle = oracle_hit_ratio(batches, 1000, 100)
        theoretical = z.mass_of_top_fraction(0.1)
        assert oracle == pytest.approx(theoretical, abs=0.03)
