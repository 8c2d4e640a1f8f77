"""Regression tests for the intensity/sampling state-machine bugfixes.

Three bugs shipped with the original FreqTier port:

1. entering monitoring mode off an empty window stored ``None`` as the
   reference hit ratio and monitoring never resumed sampling (covered
   at controller level in ``test_intensity.py``);
2. samples buffered in the PEBS ring at the SAMPLING -> MONITORING
   transition survived monitoring mode and were replayed -- arbitrarily
   stale -- when sampling resumed;
3. the aging counter was reset to zero instead of decremented by the
   interval, so sample batches larger than ``aging_interval_samples``
   silently stretched the aging cadence.

A later one sat in the demotion scan: a pass that lapped the address
space re-read the start of the pass in its last chunk and collected
those pages twice, so the page table counted their move twice and
local DRAM overfilled.

These tests drive the full policy and pin the fixed behaviour.
"""

import numpy as np

from repro import ExperimentConfig, PolicySpec, WorkloadSpec
from repro.core.engine import SimulationEngine
from repro.core.runner import build_machine
from repro.memsim.machine import Machine, MachineConfig
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.obs import ListSink, Tracer
from repro.policies.freqtier import FreqTier, FreqTierConfig
from repro.policies.freqtier.intensity import TieringState

from tests.policies.conftest import drive


def make_traced_setup(local=128, cxl=4096, footprint=2048, **cfg_kwargs):
    """Machine + FreqTier wired to a recording tracer + mapped region."""
    machine = Machine(
        MachineConfig(local_capacity_pages=local, cxl_capacity_pages=cxl)
    )
    policy = FreqTier(config=FreqTierConfig(**cfg_kwargs), seed=1)
    sink = ListSink()
    policy.set_tracer(Tracer(sinks=[sink]))
    policy.attach(machine)
    machine.allocate(footprint)
    return machine, policy, sink


class TestMonitoringRingFlush:
    """Bug 2: the PEBS ring must be discarded on entering monitoring."""

    def enter_monitoring(self):
        # Huge sample batch so nothing ever drains: every sample taken
        # is still in the ring when the stability ladder reaches
        # monitoring after four stable windows.
        machine, policy, sink = make_traced_setup(
            window_accesses=2_000,
            sample_batch_size=100_000,
            pebs_base_period=1,
        )
        stable = np.arange(0, 50)  # resident in local DRAM, ratio 1.0
        for i in range(8):  # 8 x 1000 accesses = 4 windows
            drive(machine, policy, np.tile(stable, 20), now=float(i))
        assert policy.state == TieringState.MONITORING
        return machine, policy, sink

    def test_ring_emptied_and_counted_as_lost(self):
        __, policy, __sink = self.enter_monitoring()
        assert policy.pebs.pending_samples == 0
        assert policy.pebs.total_lost > 0

    def test_flush_traced_as_ring_overflow(self):
        __, __, sink = self.enter_monitoring()
        flushes = [
            e
            for e in sink.of_type("ring_overflow")
            if e["reason"] == "monitoring-flush"
        ]
        assert len(flushes) == 1
        assert flushes[0]["lost"] > 0

    def test_discarded_samples_not_replayed_on_resume(self):
        __, policy, __sink = self.enter_monitoring()
        # The next drain must start from a clean ring: the discarded
        # samples are gone, not re-reported as a capacity overflow.
        batch = policy.pebs.drain()
        assert batch.num_samples == 0
        assert batch.lost == 0


class TestAgingCadence:
    """Bug 3: oversize sample batches must not stretch the aging cadence."""

    def test_remainder_carries_over(self):
        machine, policy, sink = make_traced_setup(
            aging_interval_samples=100,
            sample_batch_size=50,
            pebs_base_period=1,
        )
        # One 250-access batch drains as a single 250-sample pass.
        drive(machine, policy, np.arange(200, 450))
        assert len(sink.of_type("aging")) == 1
        # Pre-fix this reset to 0; the fix keeps the 150 remainder.
        assert policy._samples_since_aging == 150

    def test_long_run_cadence_is_one_aging_per_interval(self):
        machine, policy, sink = make_traced_setup(
            aging_interval_samples=100,
            sample_batch_size=50,
            pebs_base_period=1,
        )
        # 8 passes x 75 samples = 600 samples -> 6 agings.  The pre-fix
        # reset-to-zero yielded only 4 (one per two batches).
        for i in range(8):
            drive(machine, policy, np.arange(200, 275), now=float(i))
        assert len(sink.of_type("aging")) == 6
        assert sink.events[-1]  # tracer saw activity at all


class TestStablePromotionOrder:
    """Tied frequencies must promote in deterministic unit order."""

    def test_tied_candidates_promote_lowest_units_first(self):
        machine, policy, __ = make_traced_setup(
            local=32,
            footprint=1024,
            sample_batch_size=64,
            pebs_base_period=1,
            initial_hot_threshold=2,
            blocked_cbf=False,
            cbf_num_counters=1 << 15,
        )
        # 64 CXL pages, all with identical frequency: far more hot
        # candidates than local DRAM can absorb in one batch.
        hot = np.arange(500, 564)
        drive(machine, policy, np.tile(hot, 4))
        placement = machine.placement_of(hot)
        promoted = hot[placement == LOCAL_TIER]
        assert promoted.size > 0
        # The stable sort keeps tied units in ascending unit order, so
        # the winners are exactly the lowest-numbered pages.
        np.testing.assert_array_equal(
            promoted, np.arange(500, 500 + promoted.size)
        )

    def test_identical_runs_promote_identically(self):
        def run():
            machine, policy, __ = make_traced_setup(
                local=32,
                footprint=1024,
                sample_batch_size=64,
                pebs_base_period=1,
                initial_hot_threshold=2,
            )
            hot = np.arange(500, 564)
            drive(machine, policy, np.tile(hot, 4))
            return machine.placement_of(np.arange(0, 1024))

        np.testing.assert_array_equal(run(), run())


def test_lapping_demotion_scan_keeps_tier_counts_exact():
    """A GAP CC cell whose fourth batch laps the demotion scan: the
    tracked tier counts must equal the placement after every batch,
    and local DRAM must never hold more than its capacity."""
    workload = WorkloadSpec("gap", kernel="cc", scale=18, num_trials=2, seed=1001)()
    config = ExperimentConfig(local_fraction=0.05, ratio_label="1:32", seed=1001)
    machine = build_machine(workload.footprint_pages, config)
    engine = SimulationEngine(machine, workload, PolicySpec("freqtier", seed=1001)())
    engine.setup()
    table = machine.page_table
    for batch in workload.batches():
        engine.step(batch)
        placement = table.placement_view()
        for tier in (LOCAL_TIER, CXL_TIER):
            assert table.count_in_tier(tier) == np.count_nonzero(placement == tier)
        assert table.count_in_tier(LOCAL_TIER) <= machine.config.local_capacity_pages
    assert engine.batches_done >= 4
