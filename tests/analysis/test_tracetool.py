"""Tests for trace-file validation, summaries and timelines."""

import json

from repro.analysis.tracetool import (
    adaptation_latencies_ns,
    format_trace_summary,
    hit_ratio_series,
    state_timeline,
    summarize_trace,
    validate_trace,
)
from repro.obs import JsonlTraceSink, ListSink, Tracer, read_jsonl


def transition(tracer, t_ns, frm, to, reason, level):
    tracer.emit(
        "state_transition",
        t_ns=t_ns,
        **{"from": frm, "to": to, "reason": reason, "level": level},
    )


def adaptation_events() -> list[dict]:
    """A small trace: sample -> monitor -> resume, with level moves."""
    sink = ListSink()
    tracer = Tracer(sinks=[sink])
    transition(tracer, 0.0, "init", "sampling", "attach", "HIGH")
    tracer.emit(
        "level_change",
        t_ns=100.0,
        **{"from": "HIGH", "to": "MEDIUM", "reason": "stable"},
    )
    transition(tracer, 200.0, "sampling", "monitoring", "promotion-plateau", "OFF")
    tracer.emit(
        "window_close",
        t_ns=250.0,
        hit_ratio=0.9,
        pages_promoted=0,
        processing_rounds=0,
        state="monitoring",
        level="OFF",
    )
    transition(tracer, 500.0, "monitoring", "sampling", "distribution-change", "HIGH")
    tracer.emit("promotion", t_ns=600.0, candidates=10, promoted=7, threshold=5)
    tracer.emit("aging", t_ns=700.0, samples=100)
    tracer.emit("ring_overflow", t_ns=800.0, lost=42, reason="capacity")
    return sink.events


class TestReadAndValidate:
    def test_round_trip_through_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            for e in adaptation_events():
                sink.write(e)
        assert list(read_jsonl(path)) == adaptation_events()

    def test_validate_accepts_real_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceSink(path) as sink:
            for e in adaptation_events():
                sink.write(e)
        result = validate_trace(path)
        assert result.ok
        assert result.num_lines == len(adaptation_events())

    def test_validate_flags_bad_lines_with_numbers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            json.dumps({"type": "aging", "t_ns": 0.0, "seq": 0, "samples": 1}),
            "{not json",
            json.dumps({"type": "aging", "t_ns": 1.0, "seq": 1}),  # no samples
            json.dumps({"type": "nope", "t_ns": 2.0, "seq": 2}),
        ]
        path.write_text("\n".join(lines) + "\n")
        result = validate_trace(path)
        assert not result.ok
        assert [lineno for lineno, __ in result.errors] == [2, 3, 4]
        assert len(result.events) == 1
        assert result.num_lines == 4

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            "\n"
            + json.dumps({"type": "aging", "t_ns": 0.0, "seq": 0, "samples": 1})
            + "\n\n"
        )
        result = validate_trace(path)
        assert result.ok
        assert result.num_lines == 1


class TestStateTimeline:
    def test_segments_follow_transitions(self):
        segments = state_timeline(adaptation_events())
        assert [(s.state, s.level) for s in segments] == [
            ("sampling", "HIGH"),
            ("sampling", "MEDIUM"),
            ("monitoring", "OFF"),
            ("sampling", "HIGH"),
        ]
        assert [s.start_ns for s in segments] == [0.0, 100.0, 200.0, 500.0]
        # Each segment closes where the next opens; the last stays open.
        assert [s.end_ns for s in segments] == [100.0, 200.0, 500.0, None]

    def test_reasons_preserved(self):
        segments = state_timeline(adaptation_events())
        assert segments[2].reason == "promotion-plateau"
        assert segments[3].reason == "distribution-change"

    def test_empty_trace_yields_empty_timeline(self):
        assert state_timeline([]) == []

    def test_ordering_by_seq_not_list_position(self):
        events = adaptation_events()
        segments = state_timeline(list(reversed(events)))
        assert [s.start_ns for s in segments] == [0.0, 100.0, 200.0, 500.0]


class TestAdaptationLatencies:
    def test_monitoring_to_resume_delay(self):
        assert adaptation_latencies_ns(adaptation_events()) == [300.0]

    def test_unresumed_monitoring_entry_not_counted(self):
        events = [
            e
            for e in adaptation_events()
            if not (
                e["type"] == "state_transition"
                and e.get("reason") == "distribution-change"
            )
        ]
        assert adaptation_latencies_ns(events) == []


class TestSummaries:
    def test_summarize_headline_numbers(self):
        summary = summarize_trace(adaptation_events())
        assert summary["num_events"] == 8
        assert summary["event_counts"]["state_transition"] == 3
        assert summary["span_ns"] == 800.0
        assert summary["pages_promoted"] == 7
        assert summary["promotion_passes"] == 1
        assert summary["samples_lost"] == 42
        assert summary["agings"] == 1
        assert summary["adaptation_latencies_ns"] == [300.0]
        assert summary["hit_ratio_series"] == [(250.0, 0.9)]
        assert len(summary["timeline"]) == 4

    def test_hit_ratio_series_skips_none(self):
        sink = ListSink()
        tracer = Tracer(sinks=[sink])
        tracer.emit(
            "window_close",
            t_ns=1.0,
            hit_ratio=None,
            pages_promoted=0,
            processing_rounds=0,
            state="sampling",
            level="HIGH",
        )
        assert hit_ratio_series(sink.events) == []

    def test_format_is_human_readable(self):
        text = format_trace_summary(summarize_trace(adaptation_events()))
        assert "state/level timeline" in text
        assert "monitoring" in text
        assert "promotion passes: 1 (7 pages promoted)" in text

    def test_empty_trace_summary(self):
        summary = summarize_trace([])
        assert summary["num_events"] == 0
        assert summary["span_ns"] == 0.0
        format_trace_summary(summary)  # must not raise


class TestTruncatedTail:
    """A crash mid-write with a durable sink tears at most the final
    line; validation tolerates exactly that artifact."""

    @staticmethod
    def _valid_line(seq: int = 0) -> str:
        return json.dumps(
            {"type": "aging", "t_ns": 0.0, "seq": seq, "samples": 1}
        )

    def test_torn_final_line_without_newline_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._valid_line() + "\n" + '{"type": "aging", "t_n')
        result = validate_trace(path)
        assert result.ok
        assert result.truncated_tail
        assert len(result.events) == 1

    def test_complete_final_garbage_line_is_still_an_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(self._valid_line() + "\n{torn}\n")
        result = validate_trace(path)
        assert not result.ok
        assert not result.truncated_tail

    def test_mid_file_bad_json_is_still_an_error(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{torn\n" + self._valid_line() + "\n")
        result = validate_trace(path)
        assert not result.ok
        assert [lineno for lineno, __ in result.errors] == [1]
