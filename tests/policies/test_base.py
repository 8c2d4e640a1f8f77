"""Tests for the policy base class and stats."""

import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.policies.base import PolicyStats, TieringPolicy


class _Recorder(TieringPolicy):
    name = "recorder"

    def __init__(self):
        super().__init__()
        self.calls = []

    def on_batch(self, batch, now_ns, counts):
        self.calls.append((batch.num_accesses, now_ns, counts))
        return 1.5


class TestTieringPolicy:
    def test_machine_property_requires_attach(self):
        policy = _Recorder()
        with pytest.raises(RuntimeError):
            policy.machine

    def test_attach_binds_machine(self):
        policy = _Recorder()
        machine = Machine(MachineConfig(local_capacity_pages=8, cxl_capacity_pages=8))
        policy.attach(machine)
        assert policy.machine is machine

    def test_record_migrations_updates_stats(self):
        policy = _Recorder()
        policy._record_migrations(10, 0)
        policy._record_migrations(0, 5)
        policy._record_migrations(3, 2)
        assert policy.stats.promotions == 13
        assert policy.stats.demotions == 7
        assert policy.stats.promotion_calls == 2
        assert policy.stats.demotion_calls == 2

    def test_zero_migrations_not_counted_as_calls(self):
        policy = _Recorder()
        policy._record_migrations(0, 0)
        assert policy.stats.promotion_calls == 0
        assert policy.stats.demotion_calls == 0

    def test_describe(self):
        assert _Recorder().describe() == {"name": "recorder"}


class TestBatchCounts:
    def test_engine_passes_counts_to_on_batch(self):
        from repro.core.engine import SimulationEngine
        from repro.workloads.trace import SyntheticZipfWorkload

        policy = _Recorder()
        machine = Machine(
            MachineConfig(local_capacity_pages=64, cxl_capacity_pages=64)
        )
        workload = SyntheticZipfWorkload(
            num_pages=128, alpha=1.0, accesses_per_batch=500, seed=0
        )
        engine = SimulationEngine(machine, workload, policy)
        engine.setup()
        engine.run(max_batches=3)
        assert len(policy.calls) == 3
        for num_accesses, __, counts in policy.calls:
            n_local, n_cxl = counts
            assert n_local >= 0 and n_cxl >= 0
            assert n_local + n_cxl == num_accesses


class TestPolicyStats:
    def test_as_dict_includes_extra(self):
        stats = PolicyStats()
        stats.extra["custom"] = 7.0
        d = stats.as_dict()
        assert d["custom"] == 7.0
        assert d["promotions"] == 0
