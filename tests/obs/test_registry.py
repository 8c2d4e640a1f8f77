"""Tests for the counter and histogram registries."""

import pytest

from repro.obs.registry import CounterRegistry, HistogramRegistry

from tests.state.conftest import snapshot_round_trip


class TestCounterRegistry:
    def test_missing_counter_reads_zero(self):
        reg = CounterRegistry()
        assert reg.get("nope") == 0
        assert len(reg) == 0

    def test_inc_accumulates(self):
        reg = CounterRegistry()
        reg.inc("ops")
        reg.inc("ops", 4)
        assert reg.get("ops") == 5
        assert reg.as_dict() == {"ops": 5}

    def test_negative_increment_rejected(self):
        reg = CounterRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            reg.inc("ops", -1)

    def test_as_dict_is_a_copy(self):
        reg = CounterRegistry()
        reg.inc("ops")
        reg.as_dict()["ops"] = 999
        assert reg.get("ops") == 1


class TestHistogramRegistry:
    def test_summary_of_missing_histogram_is_none(self):
        assert HistogramRegistry().summary("nope") is None

    def test_streaming_stats(self):
        reg = HistogramRegistry()
        for v in (4.0, 1.0, 7.0):
            reg.observe("batch", v)
        summary = reg.summary("batch")
        assert summary["count"] == 3
        assert summary["sum"] == 12.0
        assert summary["min"] == 1.0
        assert summary["max"] == 7.0
        assert summary["mean"] == 4.0
        assert set(summary) == {
            "count", "sum", "min", "max", "mean", "p50", "p99", "p999",
        }

    def test_nan_rejected(self):
        reg = HistogramRegistry()
        with pytest.raises(ValueError, match="NaN"):
            reg.observe("batch", float("nan"))

    def test_as_dict_flattens_names(self):
        reg = HistogramRegistry()
        reg.observe("batch", 2.0)
        flat = reg.as_dict()
        assert flat["batch_count"] == 1
        assert flat["batch_mean"] == 2.0
        assert set(flat) == {
            "batch_count",
            "batch_sum",
            "batch_min",
            "batch_max",
            "batch_mean",
            "batch_p50",
            "batch_p99",
            "batch_p999",
        }

    def test_single_value_quantiles_exact(self):
        reg = HistogramRegistry()
        reg.observe("lat", 37.5)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert reg.quantile("lat", q) == 37.5

    def test_quantile_estimates_within_bucket_error(self):
        # Uniform 1..1000: the log-bucket estimator must land within
        # its ~4% relative error of the exact quantile.
        reg = HistogramRegistry()
        for v in range(1, 1001):
            reg.observe("lat", float(v))
        for q in (0.5, 0.99, 0.999):
            exact = q * 1000
            estimate = reg.quantile("lat", q)
            assert abs(estimate - exact) <= 0.05 * exact + 1.0

    def test_quantiles_clamped_to_observed_range(self):
        reg = HistogramRegistry()
        for v in (10.0, 20.0, 30.0):
            reg.observe("lat", v)
        assert reg.quantile("lat", 0.0) >= 10.0
        assert reg.quantile("lat", 1.0) <= 30.0

    def test_nonpositive_values_map_to_min(self):
        reg = HistogramRegistry()
        for v in (0.0, -5.0, 2.0):
            reg.observe("lat", v)
        # Two of three observations are <= 0, so the median sits in
        # the non-positive bucket, reported as the observed minimum.
        assert reg.quantile("lat", 0.5) == -5.0
        assert reg.summary("lat")["min"] == -5.0

    def test_quantile_of_missing_histogram_is_none(self):
        assert HistogramRegistry().quantile("nope", 0.5) is None

    def test_quantile_out_of_range_rejected(self):
        reg = HistogramRegistry()
        reg.observe("lat", 1.0)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            reg.quantile("lat", 1.5)

    def test_state_round_trip_through_snapshot_codec(self):
        reg = HistogramRegistry()
        for v in (0.0, -3.0, 1.0, 7.5, 7.5, 1e9):
            reg.observe("lat", v)
        reg.observe("depth", 4)
        fresh = HistogramRegistry()
        fresh.load_state(snapshot_round_trip(reg.state_dict()))
        assert fresh.as_dict() == reg.as_dict()
        for r in (reg, fresh):
            r.observe("lat", 42.0)
            r.observe("new", 1.0)
        assert fresh.as_dict() == reg.as_dict()
        assert fresh.state_dict() == reg.state_dict()
