"""Scan-window + hint-fault sampling (AutoNUMA / TPP, paper Section II-C1).

AutoNUMA periodically unmaps a *scan window* of pages (256 MB at a
time) from the application's address space.  The next access to an
unmapped page takes a minor page fault -- the *hint fault* -- at which
point the kernel knows the elapsed time since the unmap (the *hint
fault latency*).  AutoNUMA promotes pages whose hint fault latency is
below a hot threshold; TPP uses the same faults but gates promotion on
active-LRU membership instead.

:class:`HintFaultScanner` reproduces the mechanism over the simulated
access stream: an ``unmap`` timestamp array per page, a cursor that
advances one window per scan tick, and vectorized fault detection per
access batch.  Only the *first* access to an unmapped page faults
(after which the PTE is restored), which is exactly the
frequency-information loss the paper's Figure 3 illustrates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import accel
from repro.sampling.events import AccessBatch
from repro.state.codec import Stateful

#: Modeled CPU cost of one minor (hint) page fault.
HINT_FAULT_COST_NS = 1000.0


@dataclass
class HintFault:
    """A batch of hint faults observed during one access batch."""

    page_ids: np.ndarray
    #: Time since each page was unmapped (hint fault latency), ns.
    latencies_ns: np.ndarray

    @property
    def count(self) -> int:
        return int(self.page_ids.size)

    @staticmethod
    def empty() -> "HintFault":
        return HintFault(
            page_ids=np.zeros(0, dtype=np.int64),
            latencies_ns=np.zeros(0, dtype=np.float64),
        )


class HintFaultScanner(Stateful):
    """Address-space scanner producing hint faults.

    Parameters
    ----------
    total_pages:
        Size of the scanned address space (page ids ``[0, total_pages)``).
    window_pages:
        Pages unmapped per scan tick (the paper's 256 MB scan window,
        scaled).
    """

    _state_fields = ("_cursor", "_unmap_time", "faults_taken", "windows_scanned")

    def __init__(self, total_pages: int, window_pages: int):
        if total_pages <= 0:
            raise ValueError(f"total_pages must be > 0, got {total_pages}")
        if window_pages <= 0:
            raise ValueError(f"window_pages must be > 0, got {window_pages}")
        self.total_pages = int(total_pages)
        self.window_pages = min(int(window_pages), self.total_pages)
        self._cursor = 0
        # unmap_time[p] >= 0 iff page p currently has its hint PTE cleared.
        self._unmap_time = np.full(total_pages, -1.0, dtype=np.float64)
        self.faults_taken = 0
        self.windows_scanned = 0

    # -- scanning ----------------------------------------------------------

    def scan_tick(self, now_ns: float) -> np.ndarray:
        """Unmap the next scan window; returns the pages unmapped."""
        start = self._cursor
        end = start + self.window_pages
        if end <= self.total_pages:
            window = np.arange(start, end, dtype=np.int64)
            self._cursor = end % self.total_pages
        else:
            window = np.concatenate(
                [
                    np.arange(start, self.total_pages, dtype=np.int64),
                    np.arange(0, end - self.total_pages, dtype=np.int64),
                ]
            )
            self._cursor = end - self.total_pages
        self._unmap_time[window] = now_ns
        self.windows_scanned += 1
        return window

    # -- fault detection --------------------------------------------------------

    def observe(self, batch: AccessBatch, now_ns: float) -> HintFault:
        """Detect hint faults in an access batch and re-map faulted pages.

        Each unmapped page faults at most once per unmap (its first
        access in the batch); subsequent accesses in the same batch see
        the restored PTE -- the frequency-information loss of Fig. 3.

        The batch is scanned without expansion via the ``hint_faults``
        kernel -- the faults of first-occurrence detection on the
        expanded stream, in the same program order, at O(heads + run
        span + runs + candidates) cost, with no sort.  Out-of-range
        pages never fault.
        """
        if batch.num_accesses == 0:
            return HintFault.empty()
        faulted, unmap_times = accel.hint_faults(
            self._unmap_time,
            batch.head_page_ids,
            batch.run_starts,
            batch.run_counts,
        )
        if faulted.size == 0:
            return HintFault.empty()
        self.faults_taken += int(faulted.size)
        latencies = now_ns - unmap_times
        return HintFault(
            page_ids=faulted, latencies_ns=np.maximum(latencies, 0.0)
        )

    def overhead_ns(self, num_faults: int) -> float:
        """Modeled CPU tax of servicing ``num_faults`` minor faults."""
        return num_faults * HINT_FAULT_COST_NS
