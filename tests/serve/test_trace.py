"""Daemon trace schema validation and the tracetool serve summary."""

import json

from repro.analysis.tracetool import (
    serve_summary,
    summarize_trace,
    validate_trace,
)
from repro.cli import main
from repro.faults import FaultPlan
from repro.obs import EVENT_TYPES, Tracer, read_jsonl
from repro.obs.sinks import JsonlTraceSink
from repro.serve import ServeConfig, VirtualTimeDriver

from tests.serve.conftest import make_daemon

SERVE_EVENT_TYPES = {
    "tick_start",
    "deadline_exceeded",
    "degraded",
    "load_shed",
    "watchdog_restart",
    "drain_complete",
}


class TestEventSchema:
    def test_serve_event_types_registered(self):
        assert SERVE_EVENT_TYPES <= set(EVENT_TYPES)
        assert EVENT_TYPES["tick_start"] == {"tick", "mode", "queue_depth"}
        assert EVENT_TYPES["deadline_exceeded"] == {
            "tick", "budget_ns", "spent_ns",
        }
        assert EVENT_TYPES["watchdog_restart"] == {
            "restarts", "reason", "generation",
        }

    def test_daemon_trace_is_schema_valid(self, tmp_path):
        """A busy daemon run -- overload, deadline misses, a crash, a
        drain -- must emit only schema-valid events."""
        trace = tmp_path / "serve.jsonl"
        tracer = Tracer(sinks=[JsonlTraceSink(trace)])
        daemon = make_daemon(
            serve=ServeConfig(
                queue_capacity=4,
                max_batches_per_tick=2,
                tick_budget_ns=1.0,
                degrade_after_ticks=1,
                degrade_queue_high=0.5,
                checkpoint_every_ticks=2,
            ),
            tracer=tracer,
            faults=FaultPlan(seed=4, crash_after_batches=9),
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        VirtualTimeDriver(daemon, arrivals=3, max_offers=24).finish()
        tracer.close()

        outcome = validate_trace(trace)
        assert outcome.ok, outcome.errors
        seen = {e["type"] for e in outcome.events}
        assert {
            "tick_start", "load_shed", "deadline_exceeded", "degraded",
            "watchdog_restart", "drain_complete",
        } <= seen


class TestServeSummary:
    def test_summary_none_without_serve_events(self):
        assert serve_summary([]) is None

    def test_summary_reduces_serving_story(self, tmp_path):
        trace = tmp_path / "serve.jsonl"
        tracer = Tracer(sinks=[JsonlTraceSink(trace)])
        daemon = make_daemon(
            serve=ServeConfig(
                queue_capacity=4,
                max_batches_per_tick=1,
                degrade_after_ticks=1,
                degrade_queue_high=0.5,
            ),
            tracer=tracer,
        )
        VirtualTimeDriver(daemon, arrivals=3, max_offers=18).finish()
        tracer.close()

        summary = summarize_trace(list(read_jsonl(trace)))
        serve = summary["serve"]
        assert serve["ticks"] == daemon.ticks
        assert serve["shed_batches"] == daemon.queues["a"].counters.shed
        assert set(serve["queue_depth"]) >= {"p50", "p99", "p999"}
        assert sum(serve["ticks_by_mode"].values()) == serve["ticks"]
        # finish() drains through driver ticks, so the terminal drain
        # pass itself has nothing left to serve -- but it did run.
        assert serve["drained"] == 0
        assert summary["event_counts"]["drain_complete"] == 1
        assert serve["mode_timeline"]  # at least one degradation


class TestServeCli:
    def test_cli_serve_json_output(self, tmp_path, capsys):
        trace = tmp_path / "cli.jsonl"
        code = main([
            "serve",
            "--workload", "zipf",
            "--policy", "freqtier",
            "--offers", "12",
            "--arrivals", "2",
            "--queue-capacity", "8",
            "--max-batches-per-tick", "2",
            "--trace", str(trace),
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zipf_served"] == 12
        assert "enqueue_to_service_ns_p999" in payload
        assert payload["mode"] == "full"
        assert validate_trace(trace).ok

    def test_cli_serve_multi_tenant_with_checkpoints(self, tmp_path, capsys):
        code = main([
            "serve",
            "--workload", "zipf,zipf",
            "--policy", "freqtier",
            "--offers", "6",
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--checkpoint-every", "2",
            "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["zipf_served"] == 6
        assert payload["zipf-1_served"] == 6
        assert (tmp_path / "ckpt").is_dir()
        assert list((tmp_path / "ckpt").glob("snap-*.ckpt"))
