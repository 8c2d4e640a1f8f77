"""The timed run's clocks: engine steps, cell set-up, stream publication.

Untraced runs time only what an end-to-end metric needs: each batch's
service time (around ``SimulationEngine.step``; the grids' latency
sample), each cell's set-up from its start to its first batch, and each
``repro.core.shm.publish_stream`` call.  Cells that run in executor
workers are timed there by :func:`timed_run_cell`, which stands in for
the executor's work function and returns the worker's timings beside
the cell's result.

Cost: two clock reads and a list append per batch, well under 1% of a
batch's host time on every workload here.
"""

from __future__ import annotations

import time
from typing import Any

_CLOCK: "StepClock | None" = None
_RUN_CELL: Any = None


class StepClock:
    """Per-batch service times and per-cell set-up times in this process.

    A cell's set-up runs from :meth:`begin_cell` to the start of its
    first step.  Each batch's service time runs from the end of the
    previous step (the start of the first one) to the end of its own,
    so it covers pulling the batch from the stream as well as the step.
    """

    def __init__(self) -> None:
        self.ticks_ns: list[int] = []
        self.setup_ns: list[int] = []
        #: shared-stream publications, which executor grids set up first
        self.publish_ns: list[int] = []
        self._cell_start: int | None = None
        self._last_end: int | None = None

    def begin_cell(self) -> None:
        """Mark a cell's start; its first step ends its set-up."""
        self._cell_start = time.perf_counter_ns()
        self._last_end = None

    def record(self, start: int, end: int) -> None:
        if self._cell_start is not None:
            self.setup_ns.append(start - self._cell_start)
            self._cell_start = None
        self.ticks_ns.append(end - (start if self._last_end is None else self._last_end))
        self._last_end = end

    def take(self) -> tuple[list[int], list[int]]:
        """Return and clear ``(setup_ns, ticks_ns)``."""
        out = (self.setup_ns, self.ticks_ns)
        self.setup_ns, self.ticks_ns = [], []
        self._cell_start = self._last_end = None
        return out


def install() -> StepClock:
    """Time engine steps in this process (idempotent); returns the clock."""
    global _CLOCK, _RUN_CELL
    if _CLOCK is not None:
        return _CLOCK
    from repro.core import parallel, shm
    from repro.core.engine import SimulationEngine

    clock = StepClock()
    step = SimulationEngine.step

    def timed_step(self, *args, **kwargs):
        start = time.perf_counter_ns()
        outcome = step(self, *args, **kwargs)
        clock.record(start, time.perf_counter_ns())
        return outcome

    publish = shm.publish_stream

    def timed_publish(*args, **kwargs):
        start = time.perf_counter_ns()
        handle = publish(*args, **kwargs)
        clock.publish_ns.append(time.perf_counter_ns() - start)
        return handle

    SimulationEngine.step = timed_step
    shm.publish_stream = timed_publish
    _RUN_CELL = parallel.run_cell
    parallel.run_cell = timed_run_cell
    _CLOCK = clock
    return clock


def timed_run_cell(spec: Any) -> tuple[Any, tuple[list[int], list[int]]]:
    """Executor work function: the cell's result plus its timings.

    Pickled by reference into pool workers; a worker that did not
    inherit the parent's clock installs its own.
    """
    clock = install()
    clock.take()
    clock.begin_cell()
    result = _RUN_CELL(spec)
    return result, clock.take()
