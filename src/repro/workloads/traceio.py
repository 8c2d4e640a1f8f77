"""Trace persistence: save and replay access streams.

Lets users capture a workload's access stream once and replay it
byte-identically -- across policies (so every system sees the same
trace), across sessions, or from external sources (convert any
page-granular trace into the ``.npz`` layout below and feed it to the
simulator).

Format (numpy ``.npz``):

- ``page_ids``  -- int64, all accesses concatenated;
- ``batch_ends`` -- int64, cumulative end offset of each batch;
- ``num_ops``   -- float64 per batch;
- ``cpu_ns``    -- float64 per batch;
- ``bytes_per_access`` -- float64 per batch;
- ``labels``    -- unicode per batch;
- ``footprint_pages`` -- scalar, the address-space size to allocate.
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator

import numpy as np

from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads.spec import Workload


def save_trace(
    path: str | os.PathLike,
    batches: Iterable[AccessBatch],
    footprint_pages: int,
    max_batches: int | None = None,
) -> int:
    """Write ``batches`` to ``path``; returns the number saved."""
    pages: list[np.ndarray] = []
    ends: list[int] = []
    ops: list[float] = []
    cpu: list[float] = []
    bpa: list[float] = []
    labels: list[str] = []
    total = 0
    for i, batch in enumerate(batches):
        if max_batches is not None and i >= max_batches:
            break
        pages.append(batch.page_ids)
        total += batch.num_accesses
        ends.append(total)
        ops.append(batch.num_ops)
        cpu.append(batch.cpu_ns)
        bpa.append(batch.bytes_per_access)
        labels.append(batch.label)
    if not ends:
        raise ValueError("cannot save an empty trace")
    np.savez_compressed(
        path,
        page_ids=np.concatenate(pages),
        batch_ends=np.asarray(ends, dtype=np.int64),
        num_ops=np.asarray(ops, dtype=np.float64),
        cpu_ns=np.asarray(cpu, dtype=np.float64),
        bytes_per_access=np.asarray(bpa, dtype=np.float64),
        labels=np.asarray(labels, dtype="U64"),
        footprint_pages=np.int64(footprint_pages),
    )
    return len(ends)


class TraceFileWorkload(Workload):
    """A workload replayed from a saved ``.npz`` trace file."""

    name = "trace-file"

    def __init__(self, path: str | os.PathLike):
        super().__init__(seed=0)
        self.path = os.fspath(path)
        with np.load(self.path, allow_pickle=False) as data:
            self._page_ids = data["page_ids"].astype(np.int64)
            self._ends = data["batch_ends"].astype(np.int64)
            self._ops = data["num_ops"].astype(np.float64)
            self._cpu = data["cpu_ns"].astype(np.float64)
            self._bpa = data["bytes_per_access"].astype(np.float64)
            self._labels = [str(x) for x in data["labels"]]
            self._footprint = int(data["footprint_pages"])
        if len(self._ends) != len(self._ops):
            raise ValueError(f"corrupt trace file {self.path!r}")
        if self._page_ids.size and (
            int(self._page_ids.min()) < 0
            or int(self._page_ids.max()) >= self._footprint
        ):
            raise ValueError(
                f"trace {self.path!r} references pages outside "
                f"[0, {self._footprint})"
            )
        last_end = int(self._ends[-1]) if self._ends.size else 0
        if last_end != self._page_ids.size or np.any(
            np.diff(self._ends, prepend=0) < 0
        ):
            raise ValueError(
                f"trace {self.path!r} has malformed batch_ends: they must "
                f"be non-decreasing and end at the {self._page_ids.size} "
                "recorded accesses"
            )
        self.name = f"trace:{os.path.basename(self.path)}"

    @property
    def num_batches(self) -> int:
        return len(self._ends)

    @property
    def footprint_pages(self) -> int:
        return self._footprint

    def setup(self, machine: Machine) -> None:
        machine.allocate(self._footprint, name="trace-replay")
        self._machine = machine

    def batches(self) -> Iterator[AccessBatch]:
        start = 0
        for i, end in enumerate(self._ends):
            yield AccessBatch(
                page_ids=self._page_ids[start:end],
                num_ops=float(self._ops[i]),
                cpu_ns=float(self._cpu[i]),
                label=self._labels[i],
                bytes_per_access=float(self._bpa[i]),
            )
            start = int(end)
