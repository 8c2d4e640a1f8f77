"""Tests for interleaved allocation."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER


def interleaved_machine(local=100, cxl=300) -> Machine:
    return Machine(
        MachineConfig(
            local_capacity_pages=local,
            cxl_capacity_pages=cxl,
            allocation_policy="interleave",
        )
    )


class TestInterleavedAllocation:
    def test_proportional_split(self):
        machine = interleaved_machine(local=100, cxl=300)
        machine.allocate(200)
        # 1:3 capacity ratio -> ~50 local, ~150 CXL.
        assert machine.local_used_pages == pytest.approx(50, abs=2)
        assert machine.cxl_used_pages == pytest.approx(150, abs=2)

    def test_stripe_is_spread_not_prefix(self):
        machine = interleaved_machine(local=100, cxl=100)
        region = machine.allocate(100)
        pages = np.arange(region.start_page, region.end_page)
        placement = machine.page_table.tier_of(pages)
        # Local pages appear in both halves of the region.
        first_half = placement[:50]
        second_half = placement[50:]
        assert np.count_nonzero(first_half == LOCAL_TIER) > 0
        assert np.count_nonzero(second_half == LOCAL_TIER) > 0

    def test_respects_capacity(self):
        machine = interleaved_machine(local=10, cxl=1000)
        machine.allocate(900)
        assert machine.local_used_pages <= 10
        assert machine.cxl_used_pages <= 1000
        assert machine.page_table.mapped_pages == 900

    def test_migration_still_works(self):
        machine = interleaved_machine()
        machine.allocate(200)
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        outcome = machine.move_pages_ex(local_pages[:5], CXL_TIER)
        assert outcome.num_moved == 5

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(
                local_capacity_pages=10,
                cxl_capacity_pages=10,
                allocation_policy="random",
            )

    def test_default_unchanged(self):
        machine = Machine(
            MachineConfig(local_capacity_pages=50, cxl_capacity_pages=100)
        )
        machine.allocate(80)
        # Local-first: the prefix is local.
        placement = machine.page_table.tier_of(np.arange(80))
        assert np.all(placement[:50] == LOCAL_TIER)
        assert np.all(placement[50:] == CXL_TIER)


class TestInterleaveVsTiering:
    def test_tiering_beats_interleave_on_skew(self):
        """For skewed, latency-sensitive workloads the paper's whole
        premise holds: placing hot pages local beats striping."""
        from repro import FreqTier, FreqTierConfig
        from repro.core.engine import SimulationEngine
        from repro.policies.static_policy import StaticNoMigration
        from repro.workloads.trace import SyntheticZipfWorkload

        def run(allocation_policy: str, policy) -> float:
            workload = SyntheticZipfWorkload(
                num_pages=4000, alpha=1.3, accesses_per_batch=10_000, seed=9
            )
            machine = Machine(
                MachineConfig(
                    local_capacity_pages=400,
                    cxl_capacity_pages=8000,
                    allocation_policy=allocation_policy,
                )
            )
            engine = SimulationEngine(machine, workload, policy)
            result = engine.run(max_batches=50)
            return result.steady_hit_ratio

        interleave_hit = run("interleave", StaticNoMigration())
        tiered_hit = run(
            "local_first",
            FreqTier(
                config=FreqTierConfig(
                    sample_batch_size=1000,
                    pebs_base_period=4,
                    window_accesses=100_000,
                ),
                seed=9,
            ),
        )
        # Interleave pins ~10% of accesses local by construction;
        # frequency tiering concentrates the hot set.
        assert tiered_hit > interleave_hit + 0.3
