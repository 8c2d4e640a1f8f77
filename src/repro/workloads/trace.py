"""The minimal synthetic workload: :class:`SyntheticZipfWorkload`.

The page-level Zipf workload used across unit tests and sensitivity
sweeps: one region, Zipf-popular page accesses, no item structure.
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
