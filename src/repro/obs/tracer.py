"""The tracer: typed events, counters and histograms behind one handle.

The simulation loop is instrumented against a single object so the
disabled case costs as close to nothing as python allows: the shared
:data:`NULL_TRACER` singleton's ``emit``/``count``/``observe`` are
no-ops, and hot paths guard event construction with
``if tracer.enabled:`` so a disabled run never even builds the kwargs
dict.

Timestamps are *virtual* (simulated ns).  Emitters that know the
current simulated time pass ``t_ns`` explicitly; emitters without a
clock of their own (e.g. :class:`~repro.memsim.machine.Machine`) rely
on :attr:`Tracer.clock_ns`, which the engine advances once per batch.
"""

from __future__ import annotations

import contextlib
import os
from typing import Iterable, Iterator

from repro.obs.events import validate_event
from repro.obs.registry import CounterRegistry, HistogramRegistry
from repro.obs.sinks import JsonlTraceSink, TraceSink


class Tracer:
    """Emits schema-validated events to sinks and aggregates registries.

    Parameters
    ----------
    sinks:
        Zero or more :class:`~repro.obs.sinks.TraceSink` destinations.
        A sink-less tracer still aggregates counters/histograms.

    Every emitted event is validated against the schema.
    """

    enabled: bool = True

    def __init__(self, sinks: Iterable[TraceSink] = ()):
        self.sinks: list[TraceSink] = list(sinks)
        self.counters = CounterRegistry()
        self.histograms = HistogramRegistry()
        #: Virtual time fallback for emitters without their own clock.
        self.clock_ns: float = 0.0
        self._seq = 0

    # -- events -----------------------------------------------------------

    def emit(self, etype: str, t_ns: float | None = None, **fields) -> dict:
        """Emit one event; returns the event dict written to the sinks."""
        event = dict(fields)
        event["type"] = etype
        event["t_ns"] = float(self.clock_ns if t_ns is None else t_ns)
        event["seq"] = self._seq
        self._seq += 1
        validate_event(event)
        for sink in self.sinks:
            sink.write(event)
        return event

    # -- scalar aggregation ------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters.inc(name, amount)

    def observe(self, name: str, value: float) -> None:
        self.histograms.observe(name, value)

    def stats_dict(self) -> dict[str, float]:
        """Counters + flattened histograms, for ``policy_stats`` merging."""
        out = self.counters.as_dict()
        out.update(self.histograms.as_dict())
        return out

    # -- lifecycle ---------------------------------------------------------

    @property
    def events_emitted(self) -> int:
        return self._seq

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """The do-nothing default; every operation is a no-op.

    Instrumented code paths additionally guard on ``tracer.enabled``,
    so with this tracer the simulation loop's behaviour and timing are
    indistinguishable from untraced code.
    """

    enabled = False

    def __init__(self):
        super().__init__()

    def emit(self, etype: str, t_ns: float | None = None, **fields) -> dict:
        return {}

    def count(self, name: str, amount: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def stats_dict(self) -> dict[str, float]:
        return {}


#: Shared no-op tracer; safe to use as a default everywhere (stateless).
NULL_TRACER = NullTracer()


@contextlib.contextmanager
def trace_to(
    path: str | os.PathLike | None,
) -> Iterator[Tracer | None]:
    """Context manager: a JSONL-writing tracer for ``path``, or None.

    ``None`` paths yield ``None`` so call sites can thread an optional
    trace destination without branching::

        with trace_to(args.trace) as tracer:
            result = run_experiment(w, p, config, tracer=tracer)
    """
    if path is None:
        yield None
        return
    tracer = Tracer(sinks=[JsonlTraceSink(path)])
    try:
        yield tracer
    finally:
        tracer.close()
