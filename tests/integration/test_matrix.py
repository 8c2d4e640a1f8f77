"""Smoke matrix: every workload family x every policy.

Small-scale runs of the full cross-product, guarding against pairings
that only break in combination (e.g. a policy assuming CacheLib-sized
batches meeting GAP's bursty levels).  Every cell runs with no faults
and again under the ``chaos`` fault plan.  After every engine step it
checks the machine invariants a migration bug breaks first:

- the page table's per-tier counts equal the placement array's;
- local DRAM holds no more pages (used plus reserved) than it has;
- every ``Machine.move_pages_ex`` call gets distinct page ids (a
  repeated id is moved and counted twice, and the counts drift).

At the end it checks that the run produced sensible metrics.
"""

import numpy as np
import pytest

from repro import (
    AutoNUMA,
    CacheLibWorkload,
    CDN_PROFILE,
    ExperimentConfig,
    FreqTier,
    FreqTierConfig,
    GapWorkload,
    HeMem,
    MultiClock,
    SOCIAL_PROFILE,
    StaticNoMigration,
    TPP,
    XGBoostWorkload,
)
from repro.core.engine import SimulationEngine
from repro.core.runner import build_machine
from repro.faults import FAULT_PRESETS, FaultInjector
from repro.memsim.machine import Machine
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.damon import DAMONRegion

WORKLOADS = {
    "cdn": lambda: CacheLibWorkload(
        CDN_PROFILE, slab_pages=2048, ops_per_batch=1500, seed=31
    ),
    "social": lambda: CacheLibWorkload(
        SOCIAL_PROFILE, slab_pages=2048, ops_per_batch=1500, seed=31
    ),
    "gap-bfs": lambda: GapWorkload("bfs", scale=12, num_trials=2, seed=31),
    "gap-cc": lambda: GapWorkload("cc", scale=12, num_trials=2, seed=31),
    "gap-bc": lambda: GapWorkload("bc", scale=12, num_trials=1, seed=31),
    "gap-pr": lambda: GapWorkload("pr", scale=12, num_trials=1, seed=31),
    "xgboost": lambda: XGBoostWorkload(num_rounds=4, seed=31),
}

POLICIES = {
    "freqtier": lambda: FreqTier(
        config=FreqTierConfig(
            sample_batch_size=500, pebs_base_period=4, window_accesses=80_000
        ),
        seed=31,
    ),
    "freqtier-coarse": lambda: FreqTier(
        config=FreqTierConfig(
            granularity_pages=8,
            sample_batch_size=500,
            pebs_base_period=4,
            window_accesses=80_000,
        ),
        seed=31,
    ),
    "autonuma": lambda: AutoNUMA(scan_period_accesses=5_000, seed=31),
    "tpp": lambda: TPP(scan_period_accesses=5_000, seed=31),
    "hemem": lambda: HeMem(sample_batch_size=500, pebs_base_period=4, seed=31),
    "multiclock": lambda: MultiClock(
        sample_batch_size=500, pebs_base_period=4, seed=31
    ),
    "damon": lambda: DAMONRegion(
        adjust_interval_accesses=20_000, pebs_base_period=4, seed=31
    ),
    "static": StaticNoMigration,
}


def _assert_machine_invariants(machine):
    page_table = machine.page_table
    placement = page_table.placement_view()
    for tier in (LOCAL_TIER, CXL_TIER):
        assert page_table.count_in_tier(tier) == np.count_nonzero(placement == tier)
    assert (
        machine.local_used_pages + machine.reserved_local_pages
        <= machine.config.local_capacity_pages
    )


def _check_every_step(monkeypatch):
    """Check the invariants after every step and every migration call."""
    move_pages_ex = Machine.move_pages_ex
    step = SimulationEngine.step

    def distinct_move(self, pages, target_tier):
        ids = np.atleast_1d(np.asarray(pages))
        assert np.unique(ids).size == ids.size, "move_pages_ex got repeated ids"
        return move_pages_ex(self, pages, target_tier)

    def checked_step(self, batch, **kwargs):
        outcome = step(self, batch, **kwargs)
        _assert_machine_invariants(self.machine)
        return outcome

    monkeypatch.setattr(Machine, "move_pages_ex", distinct_move)
    monkeypatch.setattr(SimulationEngine, "step", checked_step)


def _run_cell(workload_name, policy_name, plan, monkeypatch):
    _check_every_step(monkeypatch)
    workload = WORKLOADS[workload_name]()
    config = ExperimentConfig(
        local_fraction=0.08, ratio_label="1:16", max_batches=25, seed=31
    )
    machine = build_machine(workload.footprint_pages, config)
    policy = POLICIES[policy_name]()
    faults = FAULT_PRESETS[plan]
    injector = (
        FaultInjector(faults, machine.config.total_capacity_pages)
        if faults.active
        else None
    )
    engine = SimulationEngine(
        machine, workload, policy, fault_injector=injector
    )
    result = engine.run(max_batches=25)

    # Machine invariants survived the pairing.
    assert machine.page_table.mapped_pages == workload.footprint_pages
    assert machine.cxl_used_pages <= machine.config.cxl_capacity_pages
    placement = machine.page_table.tier_of(np.arange(workload.footprint_pages))
    assert np.all(placement >= 0)

    # Metrics are sane.
    assert result.total_time_ns > 0
    assert 0.0 <= result.overall_hit_ratio <= 1.0
    assert result.pages_migrated == (
        result.policy_stats["promotions"] + result.policy_stats["demotions"]
    )


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
@pytest.mark.parametrize("policy_name", list(POLICIES))
def test_matrix_cell(workload_name, policy_name, monkeypatch):
    _run_cell(workload_name, policy_name, "none", monkeypatch)


@pytest.mark.parametrize("workload_name", list(WORKLOADS))
@pytest.mark.parametrize("policy_name", list(POLICIES))
def test_matrix_cell_under_chaos(workload_name, policy_name, monkeypatch):
    _run_cell(workload_name, policy_name, "chaos", monkeypatch)
