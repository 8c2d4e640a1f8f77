"""Tests for the TPP baseline."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import LOCAL_TIER
from repro.policies.tpp import TPP

from tests.policies.conftest import drive


def make_setup(local=128, cxl=4096, footprint=2048, **kwargs):
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    policy = TPP(
        scan_period_accesses=kwargs.pop("scan_period_accesses", 500),
        window_fraction=kwargs.pop("window_fraction", 0.5),
        **kwargs,
    )
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy


class TestPromotion:
    def test_active_pages_promoted_on_fault(self):
        machine, policy = make_setup()
        hot_cxl = np.arange(1000, 1050)
        for i in range(20):
            drive(machine, policy, np.tile(hot_cxl, 20), now=float(i * 1000))
        assert policy.stats.promotions > 0
        placement = machine.placement_of(hot_cxl)
        assert np.count_nonzero(placement == LOCAL_TIER) > 0

    def test_inactive_pages_not_promoted(self):
        machine, policy = make_setup(active_window_ns=1.0)
        # Window so small nothing is ever "recently referenced".
        hot_cxl = np.arange(1000, 1050)
        for i in range(10):
            drive(machine, policy, np.tile(hot_cxl, 20), now=float(i * 1e9))
        assert policy.stats.promotions == 0

    def test_no_rate_limit(self):
        """TPP promotes every active faulted page (the churn source)."""
        machine, policy = make_setup(local=256)
        wide = np.arange(1000, 1800)
        for i in range(20):
            drive(machine, policy, np.tile(wide, 3), now=float(i * 1000))
        # Promotions can exceed local capacity within the run.
        assert policy.stats.promotions + policy.stats.demotions > 256


class TestDemotion:
    def test_headroom_demotion_keeps_local_free(self):
        machine, policy = make_setup(local=100, headroom_fraction=0.2)
        drive(machine, policy, np.arange(0, 50), now=0.0)
        assert machine.local_free_pages >= 20

    def test_headroom_validation(self):
        with pytest.raises(ValueError):
            TPP(headroom_fraction=1.0)

    @pytest.mark.parametrize("window_fraction", [0.0, -0.1, 1.5])
    def test_window_fraction_validated(self, window_fraction):
        # Same (0, 1] range as AutoNUMA: both size one hint-fault
        # scanner the same way.
        with pytest.raises(ValueError, match="window_fraction"):
            TPP(window_fraction=window_fraction)

    def test_demotion_uses_stale_snapshot(self):
        machine, policy = make_setup(
            local=64,
            footprint=1024,
            lru_snapshot_interval_accesses=10_000_000,  # never refreshes
        )
        # Warm up pages 0-63 via ref sampling, but the snapshot stays
        # at its initial state: demotion candidates look uniformly cold.
        for i in range(5):
            drive(machine, policy, np.tile(np.arange(0, 64), 20), now=float(i * 1e4))
        assert np.all(np.isneginf(policy._lru_snapshot[:64]))

    def test_snapshot_refreshes_on_interval(self):
        machine, policy = make_setup(lru_snapshot_interval_accesses=1_000)
        drive(machine, policy, np.tile(np.arange(0, 64), 20), now=123.0)
        assert policy._lru_snapshot[:64].max() == 123.0


class TestChurn:
    def test_tpp_migrates_more_than_it_keeps(self):
        """The paper's Fig. 2 point: TPP's migration traffic is huge."""
        machine, policy = make_setup(local=64, footprint=1024)
        rng = np.random.default_rng(0)
        from repro.workloads.zipfian import ZipfianSampler

        z = ZipfianSampler(1024, 1.2, seed=1)
        for i in range(50):
            drive(machine, policy, z.sample(1500), now=float(i * 2000))
        migrated = policy.stats.promotions + policy.stats.demotions
        assert migrated > machine.config.local_capacity_pages
