"""Tests for the simulation engine."""


from repro.core.engine import SimulationEngine
from repro.memsim.machine import Machine, MachineConfig
from repro.policies.static_policy import StaticNoMigration
from repro.policies.freqtier import FreqTier, FreqTierConfig
from repro.workloads.trace import SyntheticZipfWorkload


def build(num_pages=1000, local=100, policy=None):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=num_pages * 2)
    )
    workload = SyntheticZipfWorkload(
        num_pages=num_pages, accesses_per_batch=1_000, seed=1
    )
    return SimulationEngine(machine, workload, policy or StaticNoMigration())


class TestRun:
    def test_respects_max_batches(self):
        engine = build()
        result = engine.run(max_batches=7)
        assert result.total_accesses == 7_000

    def test_respects_max_accesses(self):
        engine = build()
        result = engine.run(max_accesses=2_500)
        # Stops at the first batch boundary past the limit.
        assert result.total_accesses == 3_000

    def test_time_advances_monotonically(self):
        engine = build()
        engine.run(max_batches=5)
        assert engine.now_ns > 0.0
        times = engine.metrics.column("start_ns").tolist()
        assert len(times) == 5 and times == sorted(times)

    def test_traffic_recorded(self):
        engine = build()
        result = engine.run(max_batches=3)
        assert engine.machine.traffic.total_accesses == 3_000
        assert 0.0 < result.overall_hit_ratio < 1.0

    def test_setup_idempotent(self):
        engine = build()
        engine.setup()
        engine.setup()  # second call is a no-op
        assert engine.machine.address_space.total_pages == 1000

    def test_policy_attached_before_workload(self):
        """HeMem-style reservations must precede allocation."""
        from repro.policies.hemem import HeMem

        engine = build(policy=HeMem())
        engine.setup()
        assert engine.machine.reserved_local_pages > 0
        # Application pages spilled accordingly.
        assert (
            engine.machine.local_used_pages
            + engine.machine.reserved_local_pages
            <= engine.machine.config.local_capacity_pages
        )

    def test_migrations_attributed_to_batches(self):
        config = FreqTierConfig(
            sample_batch_size=200, pebs_base_period=2, window_accesses=50_000
        )
        engine = build(policy=FreqTier(config=config, seed=2))
        engine.run(max_batches=40)
        migrated = int(engine.metrics.column("pages_migrated").sum())
        assert migrated == engine.machine.traffic.pages_migrated
        assert migrated > 0

    def test_result_policy_stats_propagated(self):
        engine = build()
        result = engine.run(max_batches=2)
        assert "promotions" in result.policy_stats
