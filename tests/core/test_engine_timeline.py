"""Timeline and accounting details of the engine + metrics pipeline."""

import pytest

from repro.core.engine import SimulationEngine
from repro.memsim.machine import Machine, MachineConfig
from repro.policies.static_policy import StaticNoMigration
from repro.workloads.trace import SyntheticZipfWorkload


def run_engine(batches=10, local=100, pages=1000):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=pages * 2)
    )
    workload = SyntheticZipfWorkload(
        num_pages=pages, accesses_per_batch=1_000, seed=3
    )
    engine = SimulationEngine(machine, workload, StaticNoMigration())
    result = engine.run(max_batches=batches)
    return engine, result


class TestTimelines:
    def test_batches_tile_the_timeline(self):
        engine, __ = run_engine()
        start = engine.metrics.column("start_ns")
        end = start + engine.metrics.column("duration_ns")
        assert start[1:] == pytest.approx(end[:-1])

    def test_result_time_equals_last_end(self):
        engine, result = run_engine()
        metrics = engine.metrics
        assert result.total_time_ns == pytest.approx(
            metrics.column("start_ns")[-1] + metrics.column("duration_ns")[-1]
        )

    def test_hit_ratio_timeline_matches_records(self):
        engine, result = run_engine()
        metrics = engine.metrics
        end = metrics.column("start_ns") + metrics.column("duration_ns")
        hit = metrics.column("local_accesses") / metrics.column("num_accesses")
        assert len(result.hit_ratio_timeline) == len(metrics)
        assert [t for t, __ in result.hit_ratio_timeline] == pytest.approx(end)
        assert [hr for __, hr in result.hit_ratio_timeline] == pytest.approx(hit)

    def test_warmup_exclusion_changes_steady_metrics(self):
        __, result_with = run_engine(batches=20)
        # Same records, different warmup split.
        engine, __ = run_engine(batches=20)
        result_without = engine.metrics.finalize(
            policy_name="p",
            workload_name="w",
            traffic_breakdown={},
            migration_bytes=0,
            warmup_fraction=0.0,
        )
        # Static placement: steady metrics identical regardless of
        # warmup (no convergence) -- but both must be well-formed.
        assert 0 <= result_with.steady_hit_ratio <= 1
        assert 0 <= result_without.steady_hit_ratio <= 1
        assert result_without.total_ops >= result_with.total_ops * 0.99


class TestAggregateConsistency:
    def test_total_accesses_match_traffic(self):
        engine, result = run_engine()
        assert result.total_accesses == engine.machine.traffic.total_accesses

    def test_overall_hit_ratio_matches_traffic(self):
        engine, result = run_engine()
        assert result.overall_hit_ratio == pytest.approx(
            engine.machine.traffic.local_hit_ratio
        )

    def test_per_batch_hit_sums_to_overall(self):
        engine, result = run_engine()
        local = int(engine.metrics.column("local_accesses").sum())
        total = int(engine.metrics.column("num_accesses").sum())
        assert result.overall_hit_ratio == pytest.approx(local / total)
