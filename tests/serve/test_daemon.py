"""TieringDaemon behaviour: ticks, overload, deadlines, drain."""

import json

import pytest

from repro.faults import FaultPlan
from repro.obs import Tracer
from repro.obs.sinks import ListSink
from repro.serve import (
    ServeConfig,
    VirtualTimeDriver,
    WatchdogGaveUp,
)
from repro.state import CheckpointManager

from tests.serve.conftest import make_daemon, zipf_factory


def traced():
    sink = ListSink()
    return sink, Tracer(sinks=[sink])


class TestTick:
    def test_tick_services_round_robin(self):
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=4),
            tenants={"a": zipf_factory(seed=1), "b": zipf_factory(seed=2)},
        )
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=2)
        driver.offer_round()
        report = daemon.tick()
        assert report.served == 4
        assert daemon.queues["a"].counters.served == 2
        assert daemon.queues["b"].counters.served == 2
        assert report.mode == "full"
        assert daemon.engine.batches_done == 4

    def test_tick_is_bounded(self):
        daemon = make_daemon(serve=ServeConfig(max_batches_per_tick=2))
        driver = VirtualTimeDriver(daemon, arrivals=6, max_offers=6)
        driver.offer_round()
        report = daemon.tick()
        assert report.served == 2
        assert report.queue_depth_end == 4

    def test_empty_tick_is_fine(self, daemon):
        report = daemon.tick()
        assert report.served == 0
        assert daemon.ticks == 1

    def test_virtual_latency_recorded(self, daemon):
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=2)
        driver.offer_round()
        daemon.tick()
        summary = daemon.slo.summary("enqueue_to_service_ns")
        assert summary["count"] == 2
        assert summary["min"] > 0  # service completion is after enqueue


class TestOverloadAcceptance:
    """The issue's overload criterion: queue depth and p999 stay
    bounded, work is shed, the daemon degrades, and once the burst
    passes it re-promotes to full via hysteresis."""

    def test_shed_degrade_then_repromote(self):
        sink, tracer = traced()
        serve = ServeConfig(
            queue_capacity=8,
            max_batches_per_tick=2,
            degrade_after_ticks=2,
            promote_after_ticks=3,
            degrade_queue_high=0.5,
            promote_queue_low=0.125,
        )
        daemon = make_daemon(serve=serve, tracer=tracer)
        driver = VirtualTimeDriver(
            daemon,
            arrivals=lambda r, t: 4 if r < 12 else 0,  # burst, then calm
            max_offers=48,
        )
        reports = driver.run(40)

        modes = [r.mode for r in reports]
        assert "monitor_only" in modes  # degraded all the way down
        assert modes[-1] == "full"  # ...and recovered
        assert daemon.degradations >= 1 and daemon.promotions >= 1
        # Queue depth stays bounded by the configured capacity.
        depths = [r.queue_depth_end for r in reports]
        assert max(depths) <= serve.queue_capacity
        assert daemon.slo.summary("queue_depth")["p999"] <= serve.queue_capacity
        # Latency p999 is bounded: no entry can wait longer than the
        # virtual span of the run.
        latency = daemon.slo.summary("enqueue_to_service_ns")
        assert latency["p999"] <= daemon.engine.now_ns
        # Overflow was shed, and the trace says so.
        assert daemon.queues["a"].counters.shed > 0
        shed_events = [e for e in sink.events if e["type"] == "load_shed"]
        assert sum(e["count"] for e in shed_events) == (
            daemon.queues["a"].counters.shed
        )
        reasons = {e["reason"] for e in sink.events if e["type"] == "degraded"}
        assert reasons == {"overload", "recovered"}

    def test_migrations_gated_below_full(self):
        serve = ServeConfig(
            queue_capacity=4,
            max_batches_per_tick=1,
            degrade_after_ticks=1,
            degrade_queue_high=0.5,
        )
        daemon = make_daemon(serve=serve)
        driver = VirtualTimeDriver(daemon, arrivals=3, max_offers=30)
        driver.run(12)
        assert daemon.mode != "full"
        assert daemon.engine.machine.migrations_deferred >= 0
        assert daemon.migration_stall_ns > 0


class TestDeadlineBudget:
    def test_budget_cuts_policy_work_mid_tick(self):
        sink, tracer = traced()
        # A budget of 1 simulated ns: the first policy invocation
        # exhausts it, so later batches in the tick run policy-free.
        serve = ServeConfig(tick_budget_ns=1.0, max_batches_per_tick=4)
        daemon = make_daemon(serve=serve, tracer=tracer)
        driver = VirtualTimeDriver(daemon, arrivals=4, max_offers=4)
        driver.offer_round()
        report = daemon.tick()
        assert report.budget_exceeded
        assert daemon.deadline_ticks == 1
        events = [e for e in sink.events if e["type"] == "deadline_exceeded"]
        assert len(events) == 1  # fires once per tick, not per batch
        assert events[0]["spent_ns"] > events[0]["budget_ns"]
        batches = [e for e in sink.events if e["type"] == "batch"]
        assert len(batches) == 4
        # Policy ran for the first batch only.
        assert batches[0]["overhead_ns"] > 0
        assert all(b["overhead_ns"] == 0 for b in batches[1:])


class TestDrainAndFinalize:
    def test_drain_services_backlog_and_emits_event(self):
        sink, tracer = traced()
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=2), tracer=tracer
        )
        driver = VirtualTimeDriver(daemon, arrivals=5, max_offers=5)
        driver.offer_round()
        served = daemon.drain()
        assert served == 5
        events = [e for e in sink.events if e["type"] == "drain_complete"]
        assert len(events) == 1
        assert events[0]["served"] == 5 and events[0]["remaining"] == 0

    def test_finalize_none_when_nothing_served(self, daemon):
        assert daemon.finalize() is None

    def test_finalize_reduces_served_batches(self, daemon):
        driver = VirtualTimeDriver(daemon, arrivals=3, max_offers=6)
        result = driver.finish()
        assert result is not None
        assert result.policy_name == "FreqTier"
        assert result.workload_name.startswith("serve[")

    def test_slo_summary_has_quantiles_and_counters(self, daemon):
        VirtualTimeDriver(daemon, arrivals=2, max_offers=6).finish()
        slo = daemon.slo_summary()
        for key in (
            "enqueue_to_service_ns_p50",
            "enqueue_to_service_ns_p99",
            "enqueue_to_service_ns_p999",
            "a_served",
            "a_shed",
            "migration_stall_ns",
            "restarts",
            "deadline_ticks",
        ):
            assert key in slo
        assert slo["a_served"] == 6


class TestFinalCheckpoint:
    """drain() writes a final generation only when the state moved."""

    @staticmethod
    def progress(ckpt_dir) -> list[tuple]:
        return [
            (entry["progress"]["batches_done"], entry["progress"]["now_ns"])
            for entry in CheckpointManager(ckpt_dir).inspect()
        ]

    def test_no_duplicate_final_generation(self, tmp_path):
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=2, checkpoint_every_ticks=3),
            checkpoint_dir=str(tmp_path),
        )
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=6)
        driver.run(3)  # the third tick serves the last batches and saves
        daemon.drain()
        progress = self.progress(tmp_path)
        assert progress and len(set(progress)) == len(progress), progress

    def test_rejected_submit_reaches_final_checkpoint(self, tmp_path):
        daemon = make_daemon(
            serve=ServeConfig(
                queue_capacity=1,
                backpressure="reject",
                max_batches_per_tick=1,
                checkpoint_every_ticks=2,
            ),
            checkpoint_dir=str(tmp_path),
        )
        stream = daemon.tenants["a"].batches()
        for _ in range(2):
            daemon.submit("a", next(stream))
            daemon.tick()  # the second tick saves a generation
        daemon.submit("a", next(stream))
        assert daemon.submit("a", next(stream)) == "rejected"
        daemon.drain()
        final = CheckpointManager(tmp_path).load_latest().payload
        counters = final["serve"]["queues"]["a"]["counters"]
        assert counters["rejected"] == 1
        assert counters["served"] == 3


class TestCheckpointDirectory:
    """A daemon restores only the generations it wrote itself."""

    @staticmethod
    def daemon(ckpt_dir, seed, faults=None):
        return make_daemon(
            serve=ServeConfig(checkpoint_every_ticks=25),
            tenants={"a": zipf_factory(seed=seed, pages=1024)},
            faults=faults,
            checkpoint_dir=str(ckpt_dir),
        )

    def test_directory_of_another_run_refused_and_left_in_place(self, tmp_path):
        first = self.daemon(tmp_path, seed=1)
        VirtualTimeDriver(first, max_offers=200).finish()
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert any(name.startswith("snap-") for name in files)
        # Built on that directory, a daemon that crashes before its
        # own first save would restore the other run's generation.
        with pytest.raises(ValueError, match=str(tmp_path)):
            self.daemon(
                tmp_path, seed=2,
                faults=FaultPlan(seed=2, crash_after_batches=5),
            )
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_quarantined_generations_alone_do_not_refuse(self, tmp_path):
        (tmp_path / "snap-00000001.corrupt").write_bytes(b"torn")
        daemon = self.daemon(tmp_path, seed=1)
        VirtualTimeDriver(daemon, max_offers=30).finish()
        assert (tmp_path / "snap-00000001.corrupt").exists()
        generations = CheckpointManager(tmp_path).generations()
        assert generations[0].name == "snap-00000002.ckpt"


class TestDrainedRunEnd:
    """A run ends with the tick that serves its last batches: a stream
    that has supplied ``max_offers`` batches is exhausted at once, not
    on the next round's empty pull."""

    def test_no_idle_tick_after_last_batch(self):
        daemon = make_daemon(serve=ServeConfig(max_batches_per_tick=2))
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=6)
        assert [r.served for r in driver.run(3)] == [2, 2, 2]
        assert driver.run_until_drained() == 0

    def test_cli_chaos_smoke_reports_serving_ticks_only(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.serve
        from repro.cli import main

        drivers = []

        class Recording(VirtualTimeDriver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.reports = []
                drivers.append(self)

            def step(self):
                report = super().step()
                if report is not None:
                    self.reports.append(report)
                return report

        monkeypatch.setattr(repro.serve, "VirtualTimeDriver", Recording)
        assert main([
            "serve", "--workload", "zipf,zipf", "--policy", "freqtier",
            "--offers", "60", "--arrivals", "2", "--queue-capacity", "16",
            "--tick-budget-ns", "50000", "--faults", "chaos",
            "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "5",
            "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["ticks"] == 30
        assert summary["zipf_served"] + summary["zipf-1_served"] == 120
        assert drivers[0].reports[-1].served >= 1


class TestWatchdogGiveUp:
    def test_gives_up_past_restart_budget(self, tmp_path):
        daemon = make_daemon(
            serve=ServeConfig(max_batches_per_tick=2, max_restarts=0),
            faults=FaultPlan(seed=1, crash_after_batches=3),
            checkpoint_dir=str(tmp_path),
        )
        driver = VirtualTimeDriver(daemon, arrivals=2, max_offers=12)
        with pytest.raises(WatchdogGaveUp, match="InjectedCrash"):
            driver.run(12)
