"""Trace-file analysis: validation, summaries, adaptation timelines.

Consumes the JSONL traces written by
:class:`~repro.obs.JsonlTraceSink` (``repro run --trace``, per-cell
``CellSpec.trace_path``) and reconstructs the temporal stories the
paper tells about FreqTier:

- the **state/level timeline** (Fig. 6 state machine in action):
  every ``state_transition`` / ``level_change`` event becomes a
  timeline segment, so "when did the policy drop into monitoring mode
  and why" is one function call;
- **adaptation latencies** (Fig. 11): for each monitoring->sampling
  resume, how long the policy had been monitoring before the
  distribution change was detected;
- per-event-type **counts** and windowed hit-ratio series for quick
  plotting.

Backs the ``repro trace summarize`` / ``repro trace validate`` CLI
subcommands.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.obs.events import TraceEventError, validate_event


@dataclass
class TraceValidation:
    """Outcome of validating one trace file line by line."""

    events: list[dict]
    #: (1-based line number, error message) per invalid line.
    errors: list[tuple[int, str]] = field(default_factory=list)
    #: True when the file's final line was cut off mid-write (a crash
    #: during a durable trace); tolerated, not counted as an error.
    truncated_tail: bool = False

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def num_lines(self) -> int:
        return len(self.events) + len(self.errors)


def validate_trace(path: str | os.PathLike) -> TraceValidation:
    """Validate every line of a JSONL trace against the event schema.

    Collects errors instead of raising so a single bad line does not
    hide the rest; ``result.ok`` is the pass/fail verdict the CI
    traced-smoke job keys on.

    A final line that is not valid JSON **and** is missing its trailing
    newline is treated as a torn tail (the expected artifact of a crash
    mid-write with ``JsonlTraceSink(durable=True)``): it sets
    ``truncated_tail`` instead of failing validation.
    """
    events: list[dict] = []
    errors: list[tuple[int, str]] = []
    truncated_tail = False
    with open(path, encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            is_last = lineno == len(raw_lines)
            if is_last and not raw.endswith("\n"):
                truncated_tail = True
            else:
                errors.append((lineno, f"not valid JSON: {exc}"))
            continue
        try:
            validate_event(event)
        except TraceEventError as exc:
            errors.append((lineno, str(exc)))
            continue
        events.append(event)
    return TraceValidation(
        events=events, errors=errors, truncated_tail=truncated_tail
    )


@dataclass
class TimelineSegment:
    """One stretch of constant (state, level), from a trace."""

    start_ns: float
    state: str
    level: str
    reason: str
    end_ns: float | None = None  # None = open until end of trace

    def as_dict(self) -> dict[str, object]:
        return {
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "state": self.state,
            "level": self.level,
            "reason": self.reason,
        }


def state_timeline(events: list[dict]) -> list[TimelineSegment]:
    """Reconstruct the (state, level) timeline from trace events.

    Consumes ``state_transition`` and ``level_change`` events in
    ``seq`` order; each opens a new segment and closes the previous
    one.  This is the Fig. 11-style adaptation timeline: when sampling
    ran, at which level, when monitoring took over and why.
    """
    segments: list[TimelineSegment] = []
    state: str | None = None
    level: str | None = None
    for event in sorted(
        (e for e in events if e["type"] in ("state_transition", "level_change")),
        key=lambda e: e["seq"],
    ):
        if event["type"] == "state_transition":
            state = event["to"]
            level = event.get("level", level)
        else:  # level_change keeps the state, moves the level
            level = event["to"]
        if segments:
            segments[-1].end_ns = event["t_ns"]
        segments.append(
            TimelineSegment(
                start_ns=event["t_ns"],
                state=state or "unknown",
                level=level or "unknown",
                reason=event["reason"],
            )
        )
    return segments


def adaptation_latencies_ns(events: list[dict]) -> list[float]:
    """Monitoring-entry -> sampling-resume delays (Fig. 11 metric)."""
    latencies: list[float] = []
    entered_at: float | None = None
    for event in sorted(
        (e for e in events if e["type"] == "state_transition"),
        key=lambda e: e["seq"],
    ):
        if event["to"] == "monitoring":
            entered_at = event["t_ns"]
        elif event["to"] == "sampling" and entered_at is not None:
            latencies.append(event["t_ns"] - entered_at)
            entered_at = None
    return latencies


def hit_ratio_series(events: list[dict]) -> list[tuple[float, float]]:
    """(t_ns, hit_ratio) points from ``window_close`` events."""
    return [
        (e["t_ns"], e["hit_ratio"])
        for e in events
        if e["type"] == "window_close" and e.get("hit_ratio") is not None
    ]


def mode_timeline(events: list[dict]) -> list[dict[str, object]]:
    """Degradation-ladder timeline from ``degraded`` serve events."""
    segments: list[dict[str, object]] = []
    for event in sorted(
        (e for e in events if e["type"] == "degraded"),
        key=lambda e: e["seq"],
    ):
        if segments:
            segments[-1]["end_ns"] = event["t_ns"]
        segments.append(
            {
                "start_ns": event["t_ns"],
                "end_ns": None,
                "mode": event["to"],
                "reason": event["reason"],
            }
        )
    return segments


def serve_summary(events: list[dict]) -> dict[str, object] | None:
    """Serving-daemon reduction of a trace, or None if never served.

    Streams ``tick_start`` queue depths through a
    :class:`~repro.obs.registry.HistogramRegistry` so the summary
    carries the same p50/p99/p999 estimates the daemon reports live.
    """
    from repro.obs.registry import HistogramRegistry

    ticks = [e for e in events if e["type"] == "tick_start"]
    if not ticks:
        return None
    depths = HistogramRegistry()
    mode_ticks: dict[str, int] = {}
    for event in ticks:
        depths.observe("queue_depth", event["queue_depth"])
        mode_ticks[event["mode"]] = mode_ticks.get(event["mode"], 0) + 1
    sheds = [e for e in events if e["type"] == "load_shed"]
    restarts = [e for e in events if e["type"] == "watchdog_restart"]
    drains = [e for e in events if e["type"] == "drain_complete"]
    return {
        "ticks": len(ticks),
        "ticks_by_mode": dict(sorted(mode_ticks.items())),
        "queue_depth": depths.summary("queue_depth"),
        "shed_batches": sum(e["count"] for e in sheds),
        "deadline_exceeded": sum(
            1 for e in events if e["type"] == "deadline_exceeded"
        ),
        "watchdog_restarts": len(restarts),
        "drained": sum(e["served"] for e in drains),
        "mode_timeline": mode_timeline(events),
    }


def summarize_trace(events: list[dict]) -> dict[str, object]:
    """Reduce a trace to the headline observability quantities."""
    counts: dict[str, int] = {}
    for event in events:
        counts[event["type"]] = counts.get(event["type"], 0) + 1
    timeline = state_timeline(events)
    promotions = [e for e in events if e["type"] == "promotion"]
    overflows = [e for e in events if e["type"] == "ring_overflow"]
    agings = counts.get("aging", 0)
    t_values = [e["t_ns"] for e in events]
    return {
        "num_events": len(events),
        "event_counts": dict(sorted(counts.items())),
        "span_ns": (max(t_values) - min(t_values)) if t_values else 0.0,
        "pages_promoted": sum(e["promoted"] for e in promotions),
        "promotion_passes": len(promotions),
        "samples_lost": sum(e["lost"] for e in overflows),
        "agings": agings,
        "adaptation_latencies_ns": adaptation_latencies_ns(events),
        "hit_ratio_series": hit_ratio_series(events),
        "timeline": [seg.as_dict() for seg in timeline],
        "serve": serve_summary(events),
    }


def format_trace_summary(summary: dict[str, object]) -> str:
    """Human-readable rendering of :func:`summarize_trace` output."""
    lines = [
        f"events:          {summary['num_events']}",
        f"span:            {summary['span_ns'] / 1e6:.3f} ms (virtual)",
        f"promotion passes: {summary['promotion_passes']} "
        f"({summary['pages_promoted']} pages promoted)",
        f"samples lost:    {summary['samples_lost']}",
        f"agings:          {summary['agings']}",
        "event counts:",
    ]
    for etype, count in summary["event_counts"].items():
        lines.append(f"  {etype:<18} {count}")
    timeline = summary["timeline"]
    if timeline:
        lines.append("state/level timeline:")
        for seg in timeline:
            end = (
                f"{seg['end_ns'] / 1e6:10.3f}" if seg["end_ns"] is not None else "       end"
            )
            lines.append(
                f"  {seg['start_ns'] / 1e6:10.3f} -> {end} ms  "
                f"{seg['state']:<10} level={seg['level']:<6} ({seg['reason']})"
            )
    latencies = summary["adaptation_latencies_ns"]
    if latencies:
        avg = sum(latencies) / len(latencies)
        lines.append(
            f"adaptation: {len(latencies)} monitoring->sampling "
            f"resume(s), mean latency {avg / 1e6:.3f} ms"
        )
    serve = summary.get("serve")
    if serve:
        lines.append("serving:")
        modes = ", ".join(
            f"{mode}={count}" for mode, count in serve["ticks_by_mode"].items()
        )
        lines.append(f"  ticks:           {serve['ticks']} ({modes})")
        depth = serve["queue_depth"]
        if depth:
            lines.append(
                "  queue depth:     "
                f"p50={depth['p50']:.1f} p99={depth['p99']:.1f} "
                f"p999={depth['p999']:.1f} max={depth['max']:.0f}"
            )
        lines.append(
            f"  shed batches:    {serve['shed_batches']}  "
            f"deadline misses: {serve['deadline_exceeded']}  "
            f"restarts: {serve['watchdog_restarts']}"
        )
        for seg in serve["mode_timeline"]:
            end = (
                f"{seg['end_ns'] / 1e6:10.3f}"
                if seg["end_ns"] is not None
                else "       end"
            )
            lines.append(
                f"  {seg['start_ns'] / 1e6:10.3f} -> {end} ms  "
                f"mode={seg['mode']:<16} ({seg['reason']})"
            )
    return "\n".join(lines)
