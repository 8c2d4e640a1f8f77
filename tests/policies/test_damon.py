"""Tests for the DAMON/DAOS-style region-based baseline."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import LOCAL_TIER
from repro.policies.damon import DAMONRegion

from tests.policies.conftest import drive


def make_setup(local=128, footprint=2048, **kwargs):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=4096)
    )
    policy = DAMONRegion(
        adjust_interval_accesses=kwargs.pop("adjust_interval_accesses", 2_000),
        pebs_base_period=kwargs.pop("pebs_base_period", 4),
        **kwargs,
    )
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy


class TestRegions:
    def test_initial_partition_covers_space(self):
        machine, policy = make_setup()
        assert policy._bounds[0] == 0
        assert policy._bounds[-1] == machine.config.total_capacity_pages
        assert np.all(np.diff(policy._bounds) > 0)

    def test_region_count_bounded(self):
        machine, policy = make_setup(min_regions=8, max_regions=64)
        rng = np.random.default_rng(0)
        for i in range(30):
            drive(machine, policy, rng.integers(0, 2048, 1000), now=float(i))
        assert 8 <= policy.num_regions <= 64

    def test_validation(self):
        with pytest.raises(ValueError):
            DAMONRegion(min_regions=10, max_regions=5)

    def test_bounds_stay_sorted_through_adjustments(self):
        machine, policy = make_setup()
        rng = np.random.default_rng(1)
        for i in range(20):
            drive(machine, policy, rng.integers(0, 2048, 1000), now=float(i))
            assert np.all(np.diff(policy._bounds) > 0)
            assert len(policy._region_hits) == policy.num_regions


class TestSplitMerge:
    def test_hot_region_gets_refined(self):
        machine, policy = make_setup(min_regions=4, max_regions=128)
        initial_size = int(np.diff(policy._bounds).max())
        hot = np.full(1_000, 1500, dtype=np.int64)
        for i in range(10):
            drive(machine, policy, hot, now=float(i))
        # The region containing the hot page shrank (splits refined it),
        # even if merges collapsed cold regions elsewhere.
        idx = int(np.searchsorted(policy._bounds, 1500, side="right")) - 1
        hot_region_size = int(
            policy._bounds[idx + 1] - policy._bounds[idx]
        )
        assert hot_region_size < initial_size

    def test_uniform_regions_merge(self):
        machine, policy = make_setup(min_regions=4, max_regions=256)
        rng = np.random.default_rng(2)
        for i in range(40):
            drive(machine, policy, rng.integers(0, 2048, 1500), now=float(i))
        # Uniform traffic: merges keep the region count near the floor.
        assert policy.num_regions < 128


class TestMigration:
    def test_hot_region_promoted_wholesale(self):
        machine, policy = make_setup()
        hot = np.concatenate(
            [np.full(500, p, dtype=np.int64) for p in range(1500, 1510)]
        )
        for i in range(15):
            drive(machine, policy, hot, now=float(i))
        placement = machine.placement_of(np.arange(1500, 1510))
        assert np.count_nonzero(placement == LOCAL_TIER) > 0
        assert policy.stats.promotions > 0

    def test_region_granularity_is_coarse(self):
        """The paper's criticism: cold pages ride along with hot ones."""
        machine, policy = make_setup()
        one_hot_page = np.full(3_000, 1500, dtype=np.int64)
        for i in range(15):
            drive(machine, policy, one_hot_page, now=float(i))
        # More pages were promoted than were ever accessed.
        if policy.stats.promotions:
            assert policy.stats.promotions > 1


class TestStats:
    def test_counts_processed_samples(self):
        machine, policy = make_setup()
        rng = np.random.default_rng(3)
        for i in range(10):
            drive(machine, policy, rng.integers(0, 2048, 1000), now=float(i))
        drained = policy.pebs.total_samples - policy.pebs.pending_samples
        assert drained > 0
        assert policy.stats.samples_processed == drained
