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
from repro.workloads.spec import Workload
from repro.workloads.zipfian import ZipfianSampler


class SyntheticZipfWorkload(Workload):
    """Zipf-popular accesses over one flat region of pages."""

    name = "synthetic-zipf"
    _state_fields = ("sampler",)

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

    @property
    def footprint_pages(self) -> int:
        return self.num_pages

    def setup(self, machine: Machine) -> None:
        region = machine.allocate(self.num_pages, name="zipf-heap")
        self._start_page = region.start_page
        self._machine = machine

    def batches(self) -> Iterator[AccessBatch]:
        while True:
            pages = self._start_page + self.sampler.sample(self.accesses_per_batch)
            yield AccessBatch(
                page_ids=pages,
                num_ops=float(self.accesses_per_batch),
                cpu_ns=self.accesses_per_batch * self.cpu_ns_per_access,
            )

    def hottest_pages(self, count: int) -> np.ndarray:
        """Page ids of the ``count`` most popular pages (oracle)."""
        return self._start_page + self.sampler.top_items(count)


class RecordedTrace(Workload):
    """Record another workload's stream once, replay it identically.

    ``setup`` re-runs the inner workload's setup (regions must be laid
    out identically, which holds when replaying onto a machine with
    the same capacities).
    """

    def __init__(self, inner: Workload, max_batches: int):
        super().__init__(seed=inner.seed)
        if max_batches < 1:
            raise ValueError(f"max_batches must be >= 1, got {max_batches}")
        self.inner = inner
        self.name = f"recorded-{inner.name}"
        self.max_batches = int(max_batches)
        self._recorded: list[AccessBatch] | None = None

    @property
    def footprint_pages(self) -> int:
        return self.inner.footprint_pages

    def setup(self, machine: Machine) -> None:
        self.inner.setup(machine)
        self._machine = machine
        if self._recorded is None:
            self._recorded = []
            for i, batch in enumerate(self.inner.batches()):
                if i >= self.max_batches:
                    break
                # Copy the compressed arrays (generators may reuse
                # their buffers) and every scalar, so a replay costs
                # exactly what the live run did.
                self._recorded.append(
                    AccessBatch(
                        None,
                        num_ops=batch.num_ops,
                        cpu_ns=batch.cpu_ns,
                        label=batch.label,
                        bytes_per_access=batch.bytes_per_access,
                        head_page_ids=batch.head_page_ids.copy(),
                        run_starts=batch.run_starts.copy(),
                        run_counts=batch.run_counts.copy(),
                    )
                )

    def batches(self) -> Iterator[AccessBatch]:
        if self._recorded is None:
            raise RuntimeError("RecordedTrace.batches() before setup()")
        yield from iter(self._recorded)
