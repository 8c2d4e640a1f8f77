"""Tests for continuous key churn (paper Section VII-D)."""

import numpy as np
import pytest

from repro.memsim.machine import Machine, MachineConfig
from repro.workloads.cachelib import CacheLibWorkload, SOCIAL_PROFILE
from repro.workloads.zipfian import ZipfianSampler


class TestReassignRanks:
    def test_swaps_change_mapping(self):
        z = ZipfianSampler(1000, 1.2, seed=1)
        before = z.top_items(50).copy()
        z.reassign_ranks(500)
        after = z.top_items(50)
        assert not np.array_equal(before, after)

    def test_mapping_stays_a_permutation(self):
        z = ZipfianSampler(500, 1.0, seed=2)
        z.reassign_ranks(2_000)
        assert len(np.unique(z._rank_to_item)) == 500

    def test_distribution_shape_unchanged(self):
        z = ZipfianSampler(1000, 1.2, seed=3)
        mass_before = z.mass_of_top_fraction(0.1)
        z.reassign_ranks(5_000)
        assert z.mass_of_top_fraction(0.1) == pytest.approx(mass_before)

    def test_zero_swaps_noop(self):
        z = ZipfianSampler(100, 1.0, seed=4)
        before = z.top_items(10).copy()
        assert z.reassign_ranks(0) == 0
        assert np.array_equal(z.top_items(10), before)


class TestChurnyWorkload:
    def make_workload(self, churn: int) -> CacheLibWorkload:
        w = CacheLibWorkload(
            SOCIAL_PROFILE,
            slab_pages=4096,
            ops_per_batch=3_000,
            churn_swaps_per_batch=churn,
            seed=5,
        )
        m = Machine(
            MachineConfig(
                local_capacity_pages=256, cxl_capacity_pages=w.footprint_pages * 2
            )
        )
        w.setup(m)
        return w

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheLibWorkload(
                SOCIAL_PROFILE, slab_pages=4096, churn_swaps_per_batch=-1
            )

    def test_hot_pages_rotate_under_churn(self):
        """With churn on, early and late hot sets diverge."""
        w = self.make_workload(churn=200)
        gen = iter(w.batches())
        early = np.concatenate([next(gen).page_ids for __ in range(3)])
        for __ in range(40):
            next(gen)
        late = np.concatenate([next(gen).page_ids for __ in range(3)])

        def top_pages(accesses):
            counts = np.bincount(accesses, minlength=w.footprint_pages)
            return set(np.argsort(counts)[-100:].tolist())

        overlap = len(top_pages(early) & top_pages(late)) / 100
        assert overlap < 0.8

    def test_no_churn_hot_set_stable(self):
        w = self.make_workload(churn=0)
        gen = iter(w.batches())
        early = np.concatenate([next(gen).page_ids for __ in range(3)])
        for __ in range(40):
            next(gen)
        late = np.concatenate([next(gen).page_ids for __ in range(3)])

        def top_pages(accesses):
            counts = np.bincount(accesses, minlength=w.footprint_pages)
            return set(np.argsort(counts)[-100:].tolist())

        overlap = len(top_pages(early) & top_pages(late)) / 100
        assert overlap > 0.6


class TestCursorSize:
    """Stream cursors ride in every serving checkpoint: an unchurned
    sampler's rank map is a pure function of its seed and stays out of
    the state, so the cursor is just RNG states."""

    @staticmethod
    def encoded_bytes(state: dict) -> int:
        from tests.state.conftest import snapshot_bytes

        return snapshot_bytes(state)

    def test_unchurned_cursors_are_small(self):
        from repro.workloads.cachelib import CDN_PROFILE
        from repro.workloads.trace import SyntheticZipfWorkload

        cdn = CacheLibWorkload(CDN_PROFILE, slab_pages=16_384, seed=1)
        zipf = SyntheticZipfWorkload(4096, accesses_per_batch=100, seed=1)
        for workload in (cdn, zipf):
            workload.setup(
                Machine(
                    MachineConfig(
                        local_capacity_pages=1024,
                        cxl_capacity_pages=workload.footprint_pages,
                    )
                )
            )
            stream = workload.batches()
            for _ in range(3):
                next(stream)
            assert self.encoded_bytes(workload.state_dict()) < 1024

    def test_churned_sampler_round_trips(self):
        z = ZipfianSampler(500, 1.1, seed=5)
        z.reassign_ranks(300)
        state = z.state_dict()
        assert state["churned_ranks"] is not None
        fresh = ZipfianSampler(500, 1.1, seed=5)
        fresh.load_state(state)
        assert np.array_equal(fresh._rank_to_item, z._rank_to_item)
        assert np.array_equal(fresh.sample(50), z.sample(50))

    def test_unchurned_state_restores_the_seeded_map(self):
        seeded = ZipfianSampler(500, 1.1, seed=5)
        state = seeded.state_dict()
        assert state["churned_ranks"] is None
        churned = ZipfianSampler(500, 1.1, seed=5)
        churned.reassign_ranks(300)
        churned.load_state(state)
        assert np.array_equal(churned._rank_to_item, seeded._rank_to_item)
        assert churned.state_dict()["churned_ranks"] is None
        assert np.array_equal(churned.sample(50), seeded.sample(50))
