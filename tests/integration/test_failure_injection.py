"""Failure injection and pathological-input tests.

The paper's system must behave sanely under conditions its mechanisms
assume away: saturated sample buffers, uniform (unskewed) workloads,
capacity so small nothing fits, and degenerate single-page traces.
"""

import numpy as np
import pytest

from repro import (
    ExperimentConfig,
    FreqTier,
    FreqTierConfig,
    SyntheticZipfWorkload,
    run_experiment,
)
from repro.memsim.machine import Machine, MachineConfig
from repro.policies.freqtier.intensity import TieringState
from repro.sampling.events import AccessBatch
from repro.sampling.pebs import PEBSSampler, SamplingLevel
from tests.policies.conftest import drive


class TestSampleLoss:
    def test_policy_survives_ring_overflow(self):
        """Saturated PEBS rings drop samples; tiering must continue."""
        machine = Machine(
            MachineConfig(local_capacity_pages=64, cxl_capacity_pages=2048)
        )
        config = FreqTierConfig(
            sample_batch_size=100_000,  # never drains by size
            pebs_base_period=1,  # sample everything
            window_accesses=50_000,
            pebs_ring_capacity=64,  # drastically constrained ring
        )
        policy = FreqTier(config=config, seed=1)
        policy.attach(machine)
        assert policy.pebs.ring_capacity == 64
        machine.allocate(1024)
        hot = np.arange(500, 540)
        for i in range(30):
            drive(machine, policy, np.tile(hot, 50), now=float(i))
        assert policy.pebs.total_lost > 0
        # Flush-at-window-close still processed what survived.
        assert policy.stats.samples_processed > 0


class TestUnskewedWorkload:
    def test_uniform_accesses_bounded_migration(self):
        """Section VIII-a: no-skew apps see little benefit -- and the
        policy must not thrash trying to find nonexistent hot pages."""
        config = ExperimentConfig(local_fraction=0.1, max_batches=60, seed=2)
        result = run_experiment(
            lambda: SyntheticZipfWorkload(
                num_pages=4000, alpha=0.0, accesses_per_batch=20_000, seed=2
            ),
            lambda: FreqTier(seed=2),
            config,
        )
        # Hit ratio stays near the capacity share (no magic).
        assert result.steady_hit_ratio < 0.35
        # Migration traffic stays bounded (no unbounded churn): fewer
        # pages moved than accesses sampled.
        assert result.pages_migrated < result.total_accesses / 50


class TestDegenerateShapes:
    def test_single_hot_page(self):
        machine = Machine(
            MachineConfig(local_capacity_pages=32, cxl_capacity_pages=512)
        )
        policy = FreqTier(
            config=FreqTierConfig(sample_batch_size=200, pebs_base_period=2),
            seed=3,
        )
        policy.attach(machine)
        machine.allocate(256)
        one_page = np.full(2_000, 200, dtype=np.int64)
        for i in range(10):
            drive(machine, policy, one_page, now=float(i))
        # The single hot page ends up local.
        assert machine.placement_of(np.array([200]))[0] == 0

    def test_empty_batches_are_noops(self):
        machine = Machine(
            MachineConfig(local_capacity_pages=32, cxl_capacity_pages=512)
        )
        policy = FreqTier(seed=4)
        policy.attach(machine)
        machine.allocate(64)
        empty = AccessBatch(
            page_ids=np.zeros(0, dtype=np.int64), num_ops=0.0, cpu_ns=0.0
        )
        overhead = policy.on_batch(empty, 0.0, (0, 0))
        assert overhead == 0.0

    def test_footprint_smaller_than_local(self):
        """Everything fits: policy must settle into monitoring and stop."""
        config = ExperimentConfig(local_fraction=1.2, max_batches=80, seed=5)
        workload = lambda: SyntheticZipfWorkload(
            num_pages=500, alpha=1.2, accesses_per_batch=20_000, seed=5
        )
        policy_holder = {}

        def make_policy():
            p = FreqTier(
                config=FreqTierConfig(window_accesses=100_000), seed=5
            )
            policy_holder["p"] = p
            return p

        result = run_experiment(workload, make_policy, config)
        assert result.overall_hit_ratio == pytest.approx(1.0)
        assert policy_holder["p"].state == TieringState.MONITORING
        assert result.pages_migrated == 0


class TestSamplerEdgeCases:
    def test_off_then_on(self):
        sampler = PEBSSampler(base_period=2, seed=0)
        batch = AccessBatch(page_ids=np.arange(100), num_ops=1.0, cpu_ns=0.0)
        sampler.set_level(SamplingLevel.OFF)
        sampler.observe(batch)
        assert sampler.pending_samples == 0
        sampler.set_level(SamplingLevel.HIGH)
        sampler.observe(batch)
        assert sampler.pending_samples > 0
