"""Tests for FreqTier's tracking-granularity support."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import LOCAL_TIER
from repro.policies.freqtier import FreqTier, FreqTierConfig

from tests.policies.conftest import drive


def make_setup(granularity: int, local=128, footprint=2048):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=4096)
    )
    policy = FreqTier(
        config=FreqTierConfig(
            granularity_pages=granularity,
            sample_batch_size=500,
            pebs_base_period=4,
            window_accesses=100_000,
        ),
        seed=1,
    )
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy


class TestUnitTranslation:
    def test_identity_at_4k(self):
        __, policy = make_setup(1)
        pages = np.array([0, 5, 100])
        assert np.array_equal(policy._units_of(pages), pages)
        assert np.array_equal(policy._pages_of_units(pages), pages)

    def test_units_group_pages(self):
        __, policy = make_setup(8)
        assert np.array_equal(
            policy._units_of(np.array([0, 7, 8, 63])), [0, 0, 1, 7]
        )

    def test_unit_expansion(self):
        __, policy = make_setup(4)
        pages = policy._pages_of_units(np.array([2]))
        assert np.array_equal(pages, [8, 9, 10, 11])

    def test_validation(self):
        with pytest.raises(ValueError):
            FreqTierConfig(granularity_pages=0)


class TestCoarseBehaviour:
    def test_whole_units_promoted(self):
        machine, policy = make_setup(8)
        # Hammer a single page: its whole 8-page unit should move.
        hot = np.full(400, 1000, dtype=np.int64)
        for i in range(40):
            drive(machine, policy, hot, now=float(i))
        unit_pages = np.arange(1000 - 1000 % 8, 1000 - 1000 % 8 + 8)
        placement = machine.placement_of(unit_pages)
        assert np.all(placement == LOCAL_TIER)

    def test_smaller_cbf_for_coarse_units(self):
        __, fine = make_setup(1)
        __, coarse = make_setup(16)
        assert coarse.cbf.num_counters <= fine.cbf.num_counters

    def test_coarse_tracking_loses_accuracy(self):
        """The paper's Challenge-2 criticism, in miniature: with hot
        pages scattered one-per-unit, coarse promotion wastes local
        DRAM on the units' cold remainder."""
        from repro.workloads.zipfian import ZipfianSampler

        def run(granularity: int) -> float:
            machine, policy = make_setup(granularity, local=128, footprint=4096)
            z = ZipfianSampler(4096, 1.3, seed=3)
            hits = total = 0
            for i in range(60):
                pages = z.sample(2000)
                tiers = machine.placement_of(pages)
                if i >= 20:  # skip warmup
                    hits += int(np.count_nonzero(tiers == LOCAL_TIER))
                    total += len(pages)
                drive(machine, policy, pages, now=float(i))
            return hits / max(total, 1)

        assert run(1) > run(32) + 0.1
