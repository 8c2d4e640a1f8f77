"""Tests for the tiered machine (allocation, watermarks, migration)."""

import numpy as np
import pytest

from repro.core.engine import SimulationEngine
from repro.memsim.machine import CapacityError, Machine, MachineConfig
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.static_policy import StaticNoMigration
from repro.sampling.events import AccessBatch


class TestConfigValidation:
    def test_nonpositive_capacities(self):
        with pytest.raises(ValueError):
            MachineConfig(local_capacity_pages=0, cxl_capacity_pages=10)
        with pytest.raises(ValueError):
            MachineConfig(local_capacity_pages=10, cxl_capacity_pages=-1)

    def test_watermark_ordering(self):
        with pytest.raises(ValueError):
            MachineConfig(
                local_capacity_pages=10,
                cxl_capacity_pages=10,
                demote_wmark_frac=0.01,
                promo_wmark_frac=0.02,
            )

    def test_local_ratio(self):
        cfg = MachineConfig(local_capacity_pages=10, cxl_capacity_pages=310)
        assert cfg.local_ratio == pytest.approx(10 / 320)


class TestAllocation:
    def test_local_first(self, tiny_machine):
        tiny_machine.allocate(5)
        assert tiny_machine.local_used_pages == 5
        assert tiny_machine.cxl_used_pages == 0

    def test_spill_to_cxl(self, tiny_machine):
        tiny_machine.allocate(20)
        assert tiny_machine.local_used_pages == 8
        assert tiny_machine.cxl_used_pages == 12

    def test_capacity_error(self, tiny_machine):
        with pytest.raises(CapacityError):
            tiny_machine.allocate(100)

    def test_region_registered_in_address_space(self, tiny_machine):
        region = tiny_machine.allocate(6, name="heap")
        assert tiny_machine.address_space.region_of(region.start_page).name == "heap"

    def test_multiple_allocations_contiguous(self, tiny_machine):
        r1 = tiny_machine.allocate(3)
        r2 = tiny_machine.allocate(4)
        assert r2.start_page == r1.end_page


class TestMigration:
    @pytest.fixture
    def machine(self, tiny_machine) -> Machine:
        tiny_machine.allocate(30)  # 8 local + 22 cxl
        return tiny_machine

    def test_demote(self, machine):
        outcome = machine.move_pages_ex(np.arange(0, 4), CXL_TIER)
        assert outcome.moved.tolist() == [0, 1, 2, 3]
        assert machine.local_used_pages == 4
        assert machine.traffic.pages_demoted == 4

    def test_promote_requires_free_local(self, machine):
        # Local is full: promotion moves nothing, and says why.
        outcome = machine.move_pages_ex(np.arange(8, 12), LOCAL_TIER)
        assert outcome.num_moved == 0
        assert outcome.rejected_capacity.tolist() == [8, 9, 10, 11]

    def test_promote_after_demote(self, machine):
        machine.move_pages_ex(np.arange(0, 4), CXL_TIER)
        outcome = machine.move_pages_ex(np.arange(8, 20), LOCAL_TIER)
        # Truncated to free local capacity, in request order.
        assert outcome.moved.tolist() == [8, 9, 10, 11]
        assert outcome.rejected_capacity.tolist() == list(range(12, 20))
        assert outcome.num_failed == 0
        assert machine.local_used_pages == 8

    def test_skip_pages_already_on_target(self, machine):
        outcome = machine.move_pages_ex(np.arange(8, 12), CXL_TIER)
        assert outcome.num_moved == 0  # already CXL
        assert outcome.rejected_capacity.size == 0

    def test_skip_unmapped_pages(self, machine):
        outcome = machine.move_pages_ex(np.array([50]), LOCAL_TIER)
        assert outcome.num_moved == 0
        assert outcome.rejected_capacity.size == 0
        assert machine.traffic.pages_migrated == 0

    def test_empty_move(self, machine):
        outcome = machine.move_pages_ex(np.zeros(0, dtype=np.int64), LOCAL_TIER)
        assert outcome.num_moved == 0
        assert outcome.rejected_capacity.size == 0


class TestWatermarks:
    def test_watermark_pages(self):
        m = Machine(
            MachineConfig(
                local_capacity_pages=1000,
                cxl_capacity_pages=1000,
                demote_wmark_frac=0.04,
                promo_wmark_frac=0.02,
            )
        )
        assert m.demote_wmark_pages == 40
        assert m.promo_wmark_pages == 20

    def test_watermark_floors_at_tiny_capacity(self):
        m = Machine(MachineConfig(local_capacity_pages=10, cxl_capacity_pages=10))
        assert m.demote_wmark_pages >= 2
        assert m.promo_wmark_pages >= 1

    def test_below_promo_wmark_when_full(self, tiny_machine):
        tiny_machine.allocate(30)
        assert tiny_machine.local_free_pages == 0
        assert tiny_machine.below_promo_wmark()

    def test_demotion_deficit(self, tiny_machine):
        tiny_machine.allocate(30)
        deficit = tiny_machine.demotion_deficit_pages()
        assert deficit == tiny_machine.demote_wmark_pages + 1

    def test_above_demote_wmark_after_demotion(self, tiny_machine):
        tiny_machine.allocate(30)
        tiny_machine.move_pages_ex(
            np.arange(0, tiny_machine.demotion_deficit_pages()), CXL_TIER
        )
        assert tiny_machine.above_demote_wmark()


def service(machine: Machine, pages) -> tuple[int, int]:
    """Service ``pages`` as one batch through ``SimulationEngine.step``."""
    engine = SimulationEngine(machine, None, StaticNoMigration())
    batch = AccessBatch(
        page_ids=np.asarray(pages, dtype=np.int64), num_ops=1.0, cpu_ns=0.0
    )
    step = engine.step(batch, invoke_policy=False)
    return step.n_local, step.n_cxl


class TestAccessServicing:
    def test_counts_by_tier(self, tiny_machine):
        tiny_machine.allocate(30)
        assert service(tiny_machine, np.arange(0, 16)) == (8, 8)
        assert tiny_machine.traffic.total_accesses == 16

    def test_unmapped_access_counts_as_cxl(self, tiny_machine):
        # The engine counts every non-local access on the CXL side; a
        # page id beyond the machine raises.
        tiny_machine.allocate(5)
        assert service(tiny_machine, np.array([0, 40])) == (1, 1)
        with pytest.raises(IndexError):
            service(tiny_machine, np.array([tiny_machine.config.total_capacity_pages]))

    def test_empty_batch(self, tiny_machine):
        assert service(tiny_machine, np.zeros(0, dtype=np.int64)) == (0, 0)


class TestReservations:
    def test_reservation_shrinks_free(self, tiny_machine):
        tiny_machine.reserve_local_pages(3)
        assert tiny_machine.local_free_pages == 5
        tiny_machine.allocate(10)
        assert tiny_machine.local_used_pages == 5

    def test_over_reservation_rejected(self, tiny_machine):
        with pytest.raises(CapacityError):
            tiny_machine.reserve_local_pages(9)

    def test_negative_rejected(self, tiny_machine):
        with pytest.raises(ValueError):
            tiny_machine.reserve_local_pages(-1)
