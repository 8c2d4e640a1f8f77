"""ServeConfig validation and round-trip."""

import pytest

from repro.serve import BACKPRESSURE_MODES, DEGRADATION_MODES, ServeConfig


class TestServeConfig:
    def test_defaults_valid(self):
        config = ServeConfig()
        assert config.backpressure in BACKPRESSURE_MODES
        assert DEGRADATION_MODES[0] == "full"
        assert DEGRADATION_MODES[-1] == "monitor_only"

    def test_round_trip(self):
        config = ServeConfig(
            queue_capacity=7, backpressure="block", tick_budget_ns=123.0
        )
        assert ServeConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown ServeConfig"):
            ServeConfig.from_dict({"queue_capacity": 4, "bogus": 1})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("queue_capacity", 0),
            ("backpressure", "drop-all"),
            ("tick_budget_ns", -1.0),
            ("max_batches_per_tick", 0),
            ("degrade_after_ticks", 0),
            ("promote_after_ticks", 0),
            ("sample_only_stride", 0),
            ("max_restarts", -1),
            ("checkpoint_every_ticks", -1),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            ServeConfig(**{field: value})

    def test_watermarks_must_be_ordered(self):
        with pytest.raises(ValueError, match="promote_queue_low"):
            ServeConfig(degrade_queue_high=0.2, promote_queue_low=0.8)
