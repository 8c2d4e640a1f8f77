"""Trace persistence: save and replay access streams.

Lets users capture a workload's access stream once and replay it
byte-identically -- across policies (so every system sees the same
trace), across sessions, or from external sources (:func:`save_trace`
takes any iterable of :class:`~repro.sampling.events.AccessBatch`).  A
trace file is one recording file (:mod:`repro.workloads.recording`
holds the format and its validation), memory-mapped on replay.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator

from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads.recording import Recording, record
from repro.workloads.spec import Workload


def save_trace(
    path: str | os.PathLike,
    batches: Iterable[AccessBatch],
    footprint_pages: int,
    max_batches: int | None = None,
) -> int:
    """Write ``batches`` to ``path``; returns the number saved.  Over the
    memory budget it raises ``StreamTooLarge`` and writes nothing."""
    recording = record(batches, footprint_pages, max_batches)
    if not len(recording):
        raise ValueError("cannot save an empty trace")
    recording.save(path)
    return len(recording)


class TraceFileWorkload(Workload):
    """A workload replayed from a saved trace file, validated on load.

    The batch cursor is the declared state: :meth:`batches` continues
    from it, and rewinds it once the trace is exhausted, so the next
    call replays from the first batch.
    """

    name = "trace-file"
    _state_fields = ("_batch",)

    def __init__(self, path: str | os.PathLike):
        super().__init__(seed=0)
        self.path = os.fspath(path)
        self._recording = Recording.load(self.path)
        self._recording.validate(self.path)
        self.name = f"trace:{os.path.basename(self.path)}"
        self._batch = 0

    @property
    def num_batches(self) -> int:
        return len(self._recording)

    @property
    def footprint_pages(self) -> int:
        return self._recording.footprint_pages

    @property
    def position(self) -> int:
        return self._batch

    def setup(self, machine: Machine) -> None:
        machine.allocate(self.footprint_pages, name="trace-replay")
        self._machine = machine

    def batches(self) -> Iterator[AccessBatch]:
        for batch in self._recording.batches(start=self._batch):
            self._batch += 1
            yield batch
        self._batch = 0
