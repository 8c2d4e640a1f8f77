"""Trace utilities: recording, replay and simple synthetic workloads.

- :class:`SyntheticZipfWorkload` -- the minimal page-level Zipf
  workload used across unit tests and sensitivity sweeps: one region,
  Zipf-popular page accesses, no item structure.
- :class:`RecordedTrace` -- record any workload's batches once and
  replay them verbatim (e.g. to show two policies the *identical*
  access stream in accuracy studies).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.memsim.machine import Machine
from repro.sampling.events import AccessBatch
from repro.workloads.recording import RecordingWorkload, record
from repro.workloads.spec import Workload
from repro.workloads.zipfian import ZipfianSampler


class SyntheticZipfWorkload(Workload):
    """Zipf-popular accesses over one flat region of pages."""

    name = "synthetic-zipf"
    _state_fields = ("sampler", "_batch")

    def __init__(
        self,
        num_pages: int,
        alpha: float = 1.2,
        accesses_per_batch: int = 50_000,
        cpu_ns_per_access: float = 3.0,
        seed: int = 0,
    ):
        super().__init__(seed=seed)
        if num_pages < 1:
            raise ValueError(f"num_pages must be >= 1, got {num_pages}")
        self.num_pages = int(num_pages)
        self.alpha = float(alpha)
        self.accesses_per_batch = int(accesses_per_batch)
        self.cpu_ns_per_access = float(cpu_ns_per_access)
        self.sampler = ZipfianSampler(num_pages, alpha, seed=seed)
        self._start_page = 0
        self._batch = 0

    @property
    def footprint_pages(self) -> int:
        return self.num_pages

    def setup(self, machine: Machine) -> None:
        region = machine.allocate(self.num_pages, name="zipf-heap")
        self._start_page = region.start_page
        self._machine = machine

    @property
    def position(self) -> int:
        return self._batch

    def batches(self) -> Iterator[AccessBatch]:
        while True:
            pages = self._start_page + self.sampler.sample(self.accesses_per_batch)
            self._batch += 1
            yield AccessBatch(
                page_ids=pages,
                num_ops=float(self.accesses_per_batch),
                cpu_ns=self.accesses_per_batch * self.cpu_ns_per_access,
            )

    def hottest_pages(self, count: int) -> np.ndarray:
        """Page ids of the ``count`` most popular pages (oracle)."""
        return self._start_page + self.sampler.top_items(count)


class RecordedTrace(RecordingWorkload):
    """Record another workload's stream once, replay it identically.

    ``setup`` re-runs the inner workload's setup (regions must be laid
    out identically, which holds when replaying onto a machine with
    the same capacities) and records the first ``max_batches`` batches
    into a heap :class:`~repro.workloads.recording.Recording`.
    """

    def __init__(self, inner: Workload, max_batches: int):
        super().__init__(seed=inner.seed)
        if max_batches < 1:
            raise ValueError(f"max_batches must be >= 1, got {max_batches}")
        self.inner = inner
        self.name = f"recorded-{inner.name}"
        self.max_batches = int(max_batches)

    @property
    def footprint_pages(self) -> int:
        return self.inner.footprint_pages

    def setup(self, machine: Machine) -> None:
        self.inner.setup(machine)
        self._machine = machine
        if self._recording is None:
            self._recording = record(
                self.inner.batches(), self.footprint_pages, self.max_batches
            )
