"""Checkpoint state of the metric history: columns plus label codes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.metrics import _COLUMNS, MetricsCollector
from repro.memsim.costmodel import BatchCost
from repro.serve import ServeConfig, VirtualTimeDriver

from tests.serve.conftest import make_daemon
from tests.state.conftest import snapshot_bytes, snapshot_round_trip

SUBNORMAL = 5e-324
BIG = 2**53 + 1  # not representable as a float64


def cost(total: float, overhead: float = 0.0) -> BatchCost:
    return BatchCost(
        cpu_ns=total - overhead,
        local_mem_ns=0.0,
        cxl_mem_ns=0.0,
        migration_ns=0.0,
        overhead_ns=overhead,
    )


def restored(collector: MetricsCollector) -> MetricsCollector:
    fresh = MetricsCollector()
    fresh.load_state(snapshot_round_trip(collector.state_dict()))
    return fresh


def column_bits(collector: MetricsCollector) -> dict[str, bytes]:
    state = collector.state_dict()
    return {name: state[name].tobytes() for name, __ in _COLUMNS}


def gap_style_collector() -> MetricsCollector:
    """Trial labels, unlabelled batches and awkward values."""
    mc = MetricsCollector()
    labels = ["", "trial-0", "trial-0", "trial-1", "", "trial-10", "trial-2"]
    starts = [0.0, -0.0, SUBNORMAL, 1.5, 1e300, 2.0**-1060, 7.25]
    for i, (label, start) in enumerate(zip(labels, starts)):
        mc.record_batch(
            start_ns=start,
            cost=cost(3.0 + i, overhead=-0.0 if i == 1 else SUBNORMAL),
            num_ops=float(i),
            local_accesses=BIG + i,
            cxl_accesses=2**62 + i,
            pages_migrated=-(2**63) + i,
            label=label,
        )
    return mc


class TestRoundTrip:
    def test_empty_collector(self):
        fresh = restored(MetricsCollector())
        assert len(fresh) == 0
        assert fresh.records == []
        fresh.record_batch(0.0, cost(1.0), 1.0, 1, 0, 0, label="x")
        assert [r.label for r in fresh.records] == ["x"]

    def test_labels_and_values_are_bit_identical(self):
        mc = gap_style_collector()
        fresh = restored(mc)
        assert len(fresh) == len(mc)
        assert column_bits(fresh) == column_bits(mc)
        assert fresh.records == mc.records
        assert [r.label for r in fresh.records] == [
            "", "trial-0", "trial-0", "trial-1", "", "trial-10", "trial-2",
        ]
        assert fresh.records[0].local_accesses == BIG
        assert np.signbit(fresh.records[1].start_ns)

    def test_labels_stored_as_sorted_vocabulary_and_codes(self):
        state = gap_style_collector().state_dict()
        assert state["label_vocab"] == sorted(set(state["label_vocab"]))
        assert state["label_vocab"][0] == ""
        assert state["label_codes"].dtype == np.int32
        assert len(state["label_codes"]) == len(state["start_ns"])

    def test_restored_collector_keeps_recording(self):
        mc = gap_style_collector()
        fresh = restored(mc)
        for collector in (mc, fresh):
            for i in range(1500):  # crosses a capacity doubling
                collector.record_batch(
                    float(i), cost(2.0), 1.0, 3, 1, 0, label=f"trial-{i % 3}"
                )
        assert column_bits(fresh) == column_bits(mc)
        assert fresh.records == mc.records

    def test_mismatched_column_length_rejected(self):
        state = gap_style_collector().state_dict()
        state["duration_ns"] = state["duration_ns"][:-1]
        with pytest.raises(ValueError, match="duration_ns"):
            MetricsCollector().load_state(state)


class TestNoAliasing:
    def test_state_arrays_are_copies(self):
        mc = gap_style_collector()
        state = mc.state_dict()
        before = {name: state[name].copy() for name, __ in _COLUMNS}
        for name, __ in _COLUMNS:
            assert not np.shares_memory(state[name], mc._cols[name])
        mc._cols["start_ns"][0] = 99.0
        mc.record_batch(1.0, cost(1.0), 1.0, 1, 1, 1, label="new")
        for name, __ in _COLUMNS:
            assert state[name].tobytes() == before[name].tobytes()
        assert "new" not in state["label_vocab"]

    def test_loaded_columns_do_not_alias_the_state(self):
        state = gap_style_collector().state_dict()
        fresh = MetricsCollector()
        fresh.load_state(state)
        for name, __ in _COLUMNS:
            assert not np.shares_memory(state[name], fresh._cols[name])


def metrics_bytes(daemon) -> int:
    """Size of a snapshot file of the ``engine.metrics`` section."""
    return snapshot_bytes(daemon.engine.capture_state()["metrics"])


def test_daemon_snapshot_metrics_grow_at_most_100_bytes_per_record():
    daemon = make_daemon(serve=ServeConfig(queue_capacity=4))
    driver = VirtualTimeDriver(daemon, arrivals=1)
    driver.run(100)
    records_100, bytes_100 = len(daemon.engine.metrics), metrics_bytes(daemon)
    driver.run(900)
    records_1000, bytes_1000 = len(daemon.engine.metrics), metrics_bytes(daemon)
    assert daemon.ticks == 1000
    assert records_1000 - records_100 == 900
    per_record = (bytes_1000 - bytes_100) / (records_1000 - records_100)
    assert per_record <= 100, per_record
