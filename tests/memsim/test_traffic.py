"""Tests for traffic accounting (paper Fig. 2)."""

import pytest

from repro._units import PAGE_SIZE
from repro.memsim.traffic import CACHE_LINE_BYTES, TrafficMeter


@pytest.fixture
def meter() -> TrafficMeter:
    return TrafficMeter()


class TestAccessAccounting:
    def test_counts_and_bytes(self, meter):
        meter.record_accesses(local=10, cxl=5)
        assert meter.local_accesses == 10
        assert meter.cxl_accesses == 5
        assert meter.local_access_bytes == 10 * CACHE_LINE_BYTES
        assert meter.total_accesses == 15

    def test_hit_ratio(self, meter):
        meter.record_accesses(local=90, cxl=10)
        assert meter.local_hit_ratio == pytest.approx(0.9)

    def test_empty_hit_ratio(self, meter):
        assert meter.local_hit_ratio == 0.0

    def test_negative_rejected(self, meter):
        with pytest.raises(ValueError):
            meter.record_accesses(-1, 0)


class TestMigrationAccounting:
    def test_promotion_and_demotion_counted_separately(self, meter):
        meter.record_migration(5, promotion=True)
        meter.record_migration(3, promotion=False)
        assert meter.pages_promoted == 5
        assert meter.pages_demoted == 3
        assert meter.pages_migrated == 8

    def test_migration_bytes_read_plus_write(self, meter):
        meter.record_migration(2, promotion=True)
        assert meter.migration_bytes == 2 * PAGE_SIZE * 2

    def test_negative_rejected(self, meter):
        with pytest.raises(ValueError):
            meter.record_migration(-1, promotion=True)


class TestBreakdown:
    def test_fractions_sum_to_one(self, meter):
        meter.record_accesses(100, 50)
        meter.record_migration(4, promotion=True)
        shares = meter.breakdown()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert shares["migration"] > 0

    def test_empty_breakdown(self, meter):
        assert meter.breakdown() == {"local": 0.0, "cxl": 0.0, "migration": 0.0}

    def test_migration_share_matches_paper_form(self, meter):
        """Fig. 2's metric: migration bytes / total traffic bytes."""
        meter.record_accesses(1000, 0)
        meter.record_migration(10, promotion=False)
        expected = (10 * PAGE_SIZE * 2) / (
            1000 * CACHE_LINE_BYTES + 10 * PAGE_SIZE * 2
        )
        assert meter.breakdown()["migration"] == pytest.approx(expected)

