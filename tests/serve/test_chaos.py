"""Chaos soak: crashes mid-serve, watchdog recovery, bit-identity.

The issue's crash acceptance criterion: a run killed mid-tick by an
:class:`~repro.faults.InjectedCrash`, restarted by the watchdog from
the latest checkpoint and driven to completion must leave the engine
and policy in *bit-identical* state to a reference run that never
crashed (same fault plan minus the crash -- the crash check draws no
RNG, so the two fault streams are identical).
"""

import json

import pytest

from repro.faults import FAULT_PRESETS, FaultPlan
from repro.obs import Tracer
from repro.obs.sinks import ListSink
from repro.serve import ServeConfig, VirtualTimeDriver
from repro.state import CheckpointManager

from tests.serve.conftest import make_daemon, zipf_factory


def canonical(state: dict) -> str:
    """Engine state as comparable JSON, fault state excluded.

    The fault injector's crash-disarm flag legitimately differs
    between a crashed-and-resumed run and its uncrashed reference;
    everything else (progress, metrics, machine placement, policy)
    must match exactly.
    """
    state = dict(state)
    state["faults"] = None
    return json.dumps(state, sort_keys=True, default=str)


def serve_config(**overrides) -> ServeConfig:
    base = dict(
        queue_capacity=16,
        max_batches_per_tick=3,
        checkpoint_every_ticks=2,
        max_restarts=3,
    )
    base.update(overrides)
    return ServeConfig(**base)


def run_daemon(faults, ckpt_dir, *, arrivals=2, offers=40, tracer=None):
    daemon = make_daemon(
        serve=serve_config(),
        faults=faults,
        checkpoint_dir=str(ckpt_dir),
        tracer=tracer,
    )
    driver = VirtualTimeDriver(daemon, arrivals=arrivals, max_offers=offers)
    driver.finish()
    return daemon, driver


class TestCrashRecovery:
    def test_watchdog_restarts_from_checkpoint(self, tmp_path):
        sink = ListSink()
        daemon, driver = run_daemon(
            FaultPlan(seed=3, crash_after_batches=17),
            tmp_path,
            tracer=Tracer(sinks=[sink]),
        )
        assert driver.restarts_seen == 1
        restarts = [
            e for e in sink.events if e["type"] == "watchdog_restart"
        ]
        assert len(restarts) == 1
        assert restarts[0]["generation"] > 0  # restored a real snapshot
        assert "InjectedCrash" in restarts[0]["reason"]
        # Recovery rolled the engine back, then replay caught it up.
        assert daemon.engine.batches_done == 40
        assert daemon.queues["a"].counters.served == 40

    @pytest.mark.parametrize("crash_at", [5, 17, 33])
    def test_crashed_run_bit_identical_to_uncrashed(self, tmp_path, crash_at):
        crashed, drv = run_daemon(
            FaultPlan(seed=3, migration_fail_prob=0.05,
                      crash_after_batches=crash_at),
            tmp_path / "crashed",
        )
        assert drv.restarts_seen == 1
        reference, _ = run_daemon(
            FaultPlan(seed=3, migration_fail_prob=0.05),
            tmp_path / "reference",
        )
        assert canonical(crashed.engine.capture_state()) == canonical(
            reference.engine.capture_state()
        )

    def test_checkpoint_holding_config_swaps_restores(
        self, tmp_path, monkeypatch
    ):
        """Older daemon checkpoints hold a ``config_swaps`` counter in
        their serve state; restore ignores the undeclared key."""
        save = CheckpointManager.save

        def save_with_config_swaps(manager, payload):
            serve = {**payload["serve"], "config_swaps": 0}
            return save(manager, {**payload, "serve": serve})

        monkeypatch.setattr(CheckpointManager, "save", save_with_config_swaps)
        sink = ListSink()
        crashed, drv = run_daemon(
            FaultPlan(seed=3, migration_fail_prob=0.05,
                      crash_after_batches=17),
            tmp_path / "crashed",
            tracer=Tracer(sinks=[sink]),
        )
        restarts = [
            e for e in sink.events if e["type"] == "watchdog_restart"
        ]
        assert drv.restarts_seen == 1 and restarts[0]["generation"] > 0
        latest = CheckpointManager(tmp_path / "crashed").load_latest()
        assert "config_swaps" in latest.payload["serve"]
        reference, _ = run_daemon(
            FaultPlan(seed=3, migration_fail_prob=0.05),
            tmp_path / "reference",
        )
        assert canonical(crashed.engine.capture_state()) == canonical(
            reference.engine.capture_state()
        )
        assert crashed.queues["a"].counters.served == 40

    def test_double_crash_still_converges(self, tmp_path):
        # The replay itself re-crosses the crash batch count; the
        # disarm flag restored from the checkpoint must keep the
        # injector from re-firing, and a *second* independent crash
        # later in the run goes through the same recovery path.
        crashed, drv = run_daemon(
            FaultPlan(seed=5, crash_after_batches=9),
            tmp_path / "crashed",
        )
        reference, _ = run_daemon(FaultPlan(seed=5), tmp_path / "ref")
        assert drv.restarts_seen == 1
        assert canonical(crashed.engine.capture_state()) == canonical(
            reference.engine.capture_state()
        )

    def test_crash_before_first_checkpoint_restarts_fresh(self, tmp_path):
        sink = ListSink()
        daemon, driver = run_daemon(
            FaultPlan(seed=2, crash_after_batches=2),
            tmp_path,
            tracer=Tracer(sinks=[sink]),
        )
        restarts = [
            e for e in sink.events if e["type"] == "watchdog_restart"
        ]
        # Depending on cadence the first checkpoint may or may not
        # precede the crash; either way the run completes fully.
        assert len(restarts) == 1
        assert daemon.queues["a"].counters.served == 40


class TestChaosSoak:
    def test_chaos_preset_plus_crash_soak(self, tmp_path):
        """The issue's soak: chaos preset + scheduled crash, recovery,
        full drain, and bit-identical convergence with the uncrashed
        reference."""
        chaos = FAULT_PRESETS["chaos"]
        crash_plan = FaultPlan(
            **{**chaos.to_dict(), "crash_after_batches": 23}
        )
        ref_plan = FaultPlan(
            **{**chaos.to_dict(), "crash_after_batches": None}
        )
        sink = ListSink()
        crashed, drv = run_daemon(
            crash_plan, tmp_path / "crashed", offers=60,
            tracer=Tracer(sinks=[sink]),
        )
        reference, _ = run_daemon(ref_plan, tmp_path / "ref", offers=60)
        assert drv.restarts_seen == 1
        assert crashed.queues["a"].counters.served == 60
        assert canonical(crashed.engine.capture_state()) == canonical(
            reference.engine.capture_state()
        )
        # The soak exercised real fault injection, not a quiet run.
        faults = [e for e in sink.events if e["type"] == "fault_injected"]
        assert faults
        # And the daemon's own SLO pipeline stayed live throughout
        # (replayed batches are observed again, so >= offers).
        slo = crashed.slo_summary()
        assert slo["enqueue_to_service_ns_count"] >= 60


def run_overloaded(faults, ckpt_dir, *, offers=30):
    """Two shed-oldest tenants offered more than a tick serves, so every
    checkpoint holds a backlog that recovery must re-admit."""
    daemon = make_daemon(
        serve=serve_config(
            queue_capacity=4, backpressure="shed-oldest",
            max_batches_per_tick=3,
        ),
        tenants={"a": zipf_factory(seed=1), "b": zipf_factory(seed=2)},
        faults=faults,
        checkpoint_dir=str(ckpt_dir),
    )
    driver = VirtualTimeDriver(daemon, arrivals=3, max_offers=offers)
    driver.finish()
    return daemon, driver


class TestRecoveryAccounting:
    """Serving counters and SLO histograms roll back with the engine."""

    @pytest.mark.parametrize("crash_at", [17, 26])
    def test_readmitted_backlog_is_not_offered_again(self, tmp_path, crash_at):
        daemon, driver = run_overloaded(
            FaultPlan(seed=3, crash_after_batches=crash_at), tmp_path
        )
        assert driver.restarts_seen == 1
        for tenant, queue in daemon.queues.items():
            c = queue.counters
            assert c.shed > 0, tenant  # the schedule really overloads
            assert c.offered == c.served + c.shed + c.rejected == 30, tenant
            assert c.enqueued == c.offered, tenant

    @pytest.mark.parametrize("crash_at", [2, 17, 26])
    def test_slo_histograms_roll_back(self, tmp_path, crash_at):
        crashed, driver = run_overloaded(
            FaultPlan(seed=3, crash_after_batches=crash_at),
            tmp_path / "crashed",
        )
        assert driver.restarts_seen == 1
        slo = crashed.slo_summary()
        served = sum(q.counters.served for q in crashed.queues.values())
        assert slo["enqueue_to_service_ns_count"] == served
        assert slo["tick_overhead_ns_count"] == crashed.ticks
        assert slo["queue_depth_count"] == crashed.ticks
        # Re-admitted entries keep their enqueue times, so the whole
        # SLO state equals that of a run that never crashed.
        reference, _ = run_overloaded(FaultPlan(seed=3), tmp_path / "ref")
        assert crashed.slo.state_dict() == reference.slo.state_dict()
