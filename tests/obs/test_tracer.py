"""Tests for the Tracer, the null tracer and the trace_to helper."""

import time

import pytest

from repro.obs import (
    JsonlTraceSink,
    ListSink,
    NULL_TRACER,
    Tracer,
    trace_to,
)
from repro.obs.events import TraceEventError
from repro.obs.sinks import read_jsonl


class TestTracer:
    def test_emit_fills_base_fields(self):
        sink = ListSink()
        tracer = Tracer(sinks=[sink])
        event = tracer.emit("aging", t_ns=5.0, samples=100)
        assert event == {"type": "aging", "t_ns": 5.0, "seq": 0, "samples": 100}
        assert sink.events == [event]

    def test_seq_is_monotone_across_types(self):
        tracer = Tracer()
        seqs = [
            tracer.emit("aging", t_ns=0.0, samples=1)["seq"],
            tracer.emit("ring_overflow", t_ns=0.0, lost=1, reason="capacity")[
                "seq"
            ],
            tracer.emit("aging", t_ns=9.0, samples=2)["seq"],
        ]
        assert seqs == [0, 1, 2]
        assert tracer.events_emitted == 3

    def test_clock_fallback_when_no_timestamp_given(self):
        tracer = Tracer()
        tracer.clock_ns = 123.0
        event = tracer.emit("aging", samples=1)
        assert event["t_ns"] == 123.0

    def test_explicit_timestamp_wins_over_clock(self):
        tracer = Tracer()
        tracer.clock_ns = 123.0
        assert tracer.emit("aging", t_ns=7.0, samples=1)["t_ns"] == 7.0

    def test_invalid_event_raises_at_emit(self):
        tracer = Tracer()
        with pytest.raises(TraceEventError):
            tracer.emit("aging", t_ns=0.0)  # missing 'samples'

    def test_stats_dict_merges_counters_and_histograms(self):
        tracer = Tracer()
        tracer.count("cbf_ops", 3)
        tracer.observe("batch_size", 10.0)
        tracer.observe("batch_size", 20.0)
        stats = tracer.stats_dict()
        assert stats["cbf_ops"] == 3
        assert stats["batch_size_count"] == 2
        assert stats["batch_size_mean"] == 15.0

    def test_context_manager_closes_sinks(self):
        sink = ListSink()
        with Tracer(sinks=[sink]) as tracer:
            tracer.emit("aging", t_ns=0.0, samples=1)
        assert sink.closed


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_all_operations_are_noops(self):
        NULL_TRACER.emit("not-even-a-valid-type")
        NULL_TRACER.count("x", 5)
        NULL_TRACER.observe("y", 1.0)
        assert NULL_TRACER.stats_dict() == {}
        assert len(NULL_TRACER.counters) == 0
        assert len(NULL_TRACER.histograms) == 0

    def test_disabled_guard_is_cheap(self):
        """The `if tracer.enabled:` guard must stay in the noise floor.

        This is a sanity bound, not a benchmark: a million guarded
        checks should take well under a second on anything.
        """
        tracer = NULL_TRACER
        start = time.perf_counter()
        hits = 0
        for __ in range(1_000_000):
            if tracer.enabled:
                hits += 1
        elapsed = time.perf_counter() - start
        assert hits == 0
        assert elapsed < 1.0


class TestTraceTo:
    def test_none_path_yields_none(self):
        with trace_to(None) as tracer:
            assert tracer is None

    def test_path_yields_writing_tracer(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with trace_to(path) as tracer:
            assert isinstance(tracer, Tracer)
            tracer.emit("aging", t_ns=1.0, samples=5)
        events = list(read_jsonl(path))
        assert len(events) == 1
        assert events[0]["type"] == "aging"

    def test_sink_closed_on_exception(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with pytest.raises(RuntimeError):
            with trace_to(path) as tracer:
                tracer.emit("aging", t_ns=1.0, samples=5)
                raise RuntimeError("boom")
        # The file handle was closed; what was written survives.
        assert len(list(read_jsonl(path))) == 1


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sinks=[JsonlTraceSink(path)])
        first = tracer.emit("aging", t_ns=1.0, samples=5)
        second = tracer.emit(
            "ring_overflow", t_ns=2.0, lost=9, reason="capacity"
        )
        tracer.close()
        assert list(read_jsonl(path)) == [first, second]

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "a" / "b" / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write({"type": "aging", "t_ns": 0.0, "seq": 0, "samples": 1})
        assert list(read_jsonl(path))

    def test_numpy_scalars_serialized(self, tmp_path):
        np = pytest.importorskip("numpy")
        path = tmp_path / "trace.jsonl"
        with JsonlTraceSink(path) as sink:
            sink.write(
                {
                    "type": "aging",
                    "t_ns": np.float64(1.5),
                    "seq": 0,
                    "samples": np.int64(7),
                }
            )
        (event,) = read_jsonl(path)
        assert event["t_ns"] == 1.5
        assert event["samples"] == 7.0

    def test_path_xor_stream_enforced(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one"):
            JsonlTraceSink()

    def test_stream_mode_does_not_close_stream(self, tmp_path):
        import io

        buf = io.StringIO()
        sink = JsonlTraceSink(stream=buf)
        sink.write({"type": "aging", "t_ns": 0.0, "seq": 0, "samples": 1})
        sink.close()
        assert not buf.closed
        assert buf.getvalue().count("\n") == 1


class TestListSink:
    def test_of_type_filters(self):
        tracer = Tracer(sinks=[sink := ListSink()])
        tracer.emit("aging", t_ns=0.0, samples=1)
        tracer.emit("ring_overflow", t_ns=0.0, lost=1, reason="capacity")
        tracer.emit("aging", t_ns=1.0, samples=2)
        assert len(sink.of_type("aging")) == 2
        assert len(sink.of_type("ring_overflow")) == 1
        assert sink.of_type("promotion") == []
