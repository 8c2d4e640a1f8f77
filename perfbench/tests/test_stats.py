"""Metric arithmetic: percentiles, completion share, results digest."""

import pytest

from perfbench.stats import (
    MIN_SAMPLES_BEYOND,
    digest,
    percentile,
    served_frac,
)


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 1001))  # 1..1000
        assert percentile(samples, 0.5) == 500
        assert percentile(samples, 0.99) == 990

    def test_order_of_samples_does_not_matter(self):
        samples = list(range(1, 201))
        assert percentile(samples[::-1], 0.9) == percentile(samples, 0.9) == 180

    def test_exactly_ten_beyond_is_reportable(self):
        samples = list(range(100))
        assert percentile(samples, 0.9) == 89  # ranks 91..100 lie beyond

    def test_fewer_than_ten_beyond_is_refused(self):
        with pytest.raises(ValueError, match="need >= 10"):
            percentile(list(range(100)), 0.95)
        with pytest.raises(ValueError):
            percentile(list(range(999)), 0.99)

    def test_minimum_is_ten(self):
        assert MIN_SAMPLES_BEYOND == 10

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 1.5])
    def test_quantile_outside_open_interval(self, q):
        with pytest.raises(ValueError):
            percentile(list(range(1000)), q)


class TestServedFrac:
    def test_grid_without_failures(self):
        assert served_frac(15, 0) == 1.0

    def test_grid_with_failed_cells(self):
        assert served_frac(15, 3) == pytest.approx(0.8)

    def test_shed_batches_count_against_offers(self):
        # Two tenants x 3000 distinct offers, 986 shed.
        assert served_frac(6000, 986) == pytest.approx(5014 / 6000)

    @pytest.mark.parametrize("attempted,failed", [(0, 0), (10, -1), (10, 11)])
    def test_inconsistent_counts(self, attempted, failed):
        with pytest.raises(ValueError):
            served_frac(attempted, failed)


class TestDigest:
    def test_key_order_is_irrelevant(self):
        assert digest({"a": 1, "b": [1.5, 2]}) == digest({"b": [1.5, 2], "a": 1})

    def test_last_bit_of_a_float_changes_it(self):
        x = 0.1 + 0.2
        assert digest({"t": x}) != digest({"t": 0.3})

    def test_nested_results(self):
        cells = [("1:32/freqtier", {"hit": 0.9, "stats": {"n": 3}})]
        assert digest(cells) == digest([("1:32/freqtier", {"stats": {"n": 3}, "hit": 0.9})])
        assert digest(cells) != digest([("1:32/tpp", {"hit": 0.9, "stats": {"n": 3}})])

