"""Zero-copy access-stream sharing across worker processes.

A reproduction grid typically runs the *same* workload cell against
many policies: N workers each rebuild the workload and regenerate an
identical multi-megabyte access stream.  This module removes that
redundancy.  The parent process generates the stream **once**, packs
every batch's arrays into a single :mod:`multiprocessing.shared_memory`
segment, and ships workers a tiny picklable handle; each worker maps
the segment read-only and replays the recorded batches as zero-copy
NumPy views.

Design points:

- **Keyed by workload fingerprint.**  A segment serves every cell whose
  (workload spec, batch budget) content-hash matches; cells that differ
  in policy or machine shape share freely.
- **Replay wraps the real workload.**  :class:`SharedStreamWorkload`
  builds the true workload inside the worker (cheap: O(setup), not
  O(batches)) and delegates ``setup()`` / ``footprint_pages`` /
  ``name`` to it, so region allocation, placement and checkpoint
  identity are *bit-identical* to the per-cell path -- only
  ``batches()`` is overridden to read the shared arrays.  Resume
  fast-forward works unchanged (the engine skips already-completed
  batches of the replay iterator).
- **Strict fallback.**  Publishing is best-effort: unbounded streams,
  closure factories, a platform without shared memory, or a stream
  too large for the host's memory budget (:class:`StreamTooLarge`)
  simply fall back to per-cell generation.  Nothing observable changes
  but speed.
- **Lifecycle.**  The creating executor unlinks every segment when its
  grid finishes (plus an ``atexit`` net for crashed runs).  Worker
  attachments re-register the name with :mod:`multiprocessing`'s
  resource tracker (CPython < 3.13, bpo-38119), but under the default
  fork start method that tracker is shared with the owner, whose name
  cache dedups the entries -- the owner's single unlink settles them.
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Iterator
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from repro.sampling.events import AccessBatch

#: Alignment of each array inside the segment (int64-friendly).
_ALIGN = 8


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


#: The arrays recorded per batch (the run-compressed form).
_BATCH_ARRAYS = ("head_page_ids", "run_starts", "run_counts")

#: Copies of each recorded byte alive at once while publishing: the
#: recorded batch list and the shared segment it is copied into.
_COPIES = 2


class StreamTooLarge(MemoryError):
    """A stream recording stopped before it outgrew the memory budget."""

    def __init__(self, recorded_bytes: int, budget: int):
        super().__init__(
            f"stream recording stopped at {recorded_bytes} bytes: "
            f"{_COPIES} copies would exceed the {budget}-byte budget"
        )
        self.recorded_bytes = recorded_bytes
        self.budget = budget


def _memory_budget() -> int:
    """Bytes one recording may hold: half the host's available memory.

    The other half is left to the workers that replay the stream.
    Reads ``MemAvailable`` (free plus reclaimable memory) where the
    kernel reports it, else the free physical pages.
    """
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024 // 2
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


# ---------------------------------------------------------------------------
# recording (parent side)
# ---------------------------------------------------------------------------


def record_stream(
    workload_factory: Callable[[], Any], max_batches: int
) -> tuple[list[dict], list[np.ndarray], bool]:
    """Generate up to ``max_batches`` batches and flatten them.

    Returns ``(records, arrays, exhausted)``: one metadata dict per
    batch referencing its arrays by position in ``arrays``, and whether
    the stream ended on its own before the budget (finite traces).
    Compressed batches keep their compressed form -- replay must not
    force the expansion the producer avoided.

    The workload is set up on a scratch all-local machine first.  Page
    ids in the stream depend only on the workload's own region
    allocation order (``AddressSpace.map_region`` assigns start pages
    sequentially; policy-side reservations debit capacity without
    mapping), so the scratch machine's tier shape cannot leak into the
    recording.

    Raises :class:`StreamTooLarge` once the recording would overrun
    the host's memory budget, counting each byte :data:`_COPIES` times:
    after the first batch when its size times ``max_batches`` already
    exceeds the budget, else as soon as the running total does.  The
    parent therefore never holds more than one batch past the budget.
    """
    # Local imports: repro.core.runner imports this package's siblings.
    from repro.core.runner import build_all_local_machine
    from repro.memsim.tier import CXL1_CONFIG

    # Taken before the workload is built: read between the workload's
    # allocations and the recording's, it left perfbench's pooled
    # cdn_grid peak RSS 66 MiB higher (2-CPU, 8 GB Linux host).
    budget = _memory_budget()
    workload = workload_factory()
    workload.setup(
        build_all_local_machine(workload.footprint_pages, CXL1_CONFIG)
    )
    records: list[dict] = []
    arrays: list[np.ndarray] = []
    exhausted = True
    recorded = 0
    stream = workload.batches()
    for _ in range(max_batches):
        batch = next(stream, None)
        if batch is None:
            break
        record: dict[str, Any] = {
            "num_ops": batch.num_ops,
            "cpu_ns": batch.cpu_ns,
            "label": batch.label,
            "bytes_per_access": batch.bytes_per_access,
        }
        for field in _BATCH_ARRAYS:
            arr = getattr(batch, field)
            record[field] = len(arrays)
            arrays.append(arr)
            recorded += arr.nbytes
        records.append(record)
        projected = recorded * max_batches if len(records) == 1 else recorded
        if _COPIES * projected > budget:
            raise StreamTooLarge(recorded, budget)
    else:
        exhausted = next(stream, None) is None
    return records, arrays, exhausted


def publish_stream(
    workload_factory: Callable[[], Any], max_batches: int
) -> "SharedStreamHandle":
    """Record a workload's stream into a fresh shared-memory segment.

    Raises :class:`StreamTooLarge` when the recording outgrows the
    memory budget, and whatever the platform raises when shared memory
    is unavailable; callers treat any exception as "fall back to
    per-cell generation".  The caller owns the segment and must
    eventually call :meth:`SharedStreamHandle.unlink`.
    """
    records, arrays, exhausted = record_stream(workload_factory, max_batches)
    total = sum(_aligned(a.nbytes) for a in arrays)
    shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
    try:
        layout: list[tuple[int, str, tuple[int, ...]]] = []
        offset = 0
        for arr in arrays:
            view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf, offset=offset)
            view[...] = arr
            layout.append((offset, arr.dtype.str, arr.shape))
            offset += _aligned(arr.nbytes)
        handle = SharedStreamHandle(
            segment=shm.name,
            records=records,
            layout=layout,
            exhausted=exhausted,
            nbytes=total,
        )
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    # Keep the mapping open in the parent for the segment's lifetime:
    # closing the last mapping before workers attach would let the OS
    # reclaim the name on some platforms.
    handle._shm = shm
    handle._owner = True
    _OWNED_HANDLES.append(handle)
    return handle


#: Owner-side handles still holding live segments (atexit safety net).
_OWNED_HANDLES: list["SharedStreamHandle"] = []


def _cleanup_owned() -> None:
    for handle in list(_OWNED_HANDLES):
        handle.unlink()


atexit.register(_cleanup_owned)


# ---------------------------------------------------------------------------
# the picklable handle
# ---------------------------------------------------------------------------


class SharedStreamHandle:
    """Names a published stream: segment + per-batch array layout.

    Pickles by value (segment name and metadata only); the receiving
    process attaches lazily on first :meth:`attach`.  The *creating*
    process is the owner and the only one that may :meth:`unlink`.
    """

    def __init__(
        self,
        segment: str,
        records: list[dict],
        layout: list[tuple[int, str, tuple[int, ...]]],
        exhausted: bool,
        nbytes: int,
    ):
        self.segment = segment
        self.records = records
        self.layout = layout
        self.exhausted = exhausted
        self.nbytes = nbytes
        self._shm: shared_memory.SharedMemory | None = None
        self._owner = False
        self._views: list[np.ndarray] | None = None

    def __getstate__(self):
        return {
            "segment": self.segment,
            "records": self.records,
            "layout": self.layout,
            "exhausted": self.exhausted,
            "nbytes": self.nbytes,
        }

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._shm = None
        self._owner = False
        self._views = None

    # -- mapping ------------------------------------------------------

    def attach(self) -> list[np.ndarray]:
        """Read-only NumPy views over every recorded array (cached)."""
        if self._views is not None:
            return self._views
        if self._shm is None:
            # CPython < 3.13 registers this attachment with the resource
            # tracker (bpo-38119).  Under the default fork start method
            # pool workers share the parent's tracker process, whose
            # name cache dedups the double registration and is cleared
            # exactly once by the owner's unlink -- so no compensating
            # unregister is needed (and issuing one here would make the
            # owner's later unregister a tracker-side KeyError).
            self._shm = shared_memory.SharedMemory(
                name=self.segment, create=False
            )
        views = []
        for offset, dtype, shape in self.layout:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=offset
            )
            view.flags.writeable = False
            views.append(view)
        self._views = views
        return views

    def close(self) -> None:
        """Drop this process's mapping (views become invalid)."""
        self._views = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:
                # A live numpy view still pins the buffer somewhere;
                # leave the mapping to process exit.
                pass
            self._shm = None

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if not self._owner:
            self.close()
            return
        self._owner = False
        if self in _OWNED_HANDLES:
            _OWNED_HANDLES.remove(self)
        shm = self._shm
        self._views = None
        self._shm = None
        if shm is None:
            try:
                shm = shared_memory.SharedMemory(name=self.segment, create=False)
            except FileNotFoundError:
                return
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------------------
# replay (worker side)
# ---------------------------------------------------------------------------


class SharedStreamWorkload:
    """A workload whose ``batches()`` replays a shared recorded stream.

    Wraps the real workload (built from ``inner_factory`` in this
    process) for everything *except* batch generation: layout,
    allocation, naming, description and checkpoint state all come from
    the genuine instance, so an engine driving this workload is
    indistinguishable from one driving the original -- the recorded
    batches are, by construction, exactly what the original would have
    generated.
    """

    def __init__(
        self, inner_factory: Callable[[], Any], handle: SharedStreamHandle
    ):
        self._inner = inner_factory()
        self._handle = handle

    # -- delegation ---------------------------------------------------

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def seed(self) -> int:
        return self._inner.seed

    @property
    def footprint_pages(self) -> int:
        return self._inner.footprint_pages

    @property
    def machine(self):
        return self._inner.machine

    def setup(self, machine) -> None:
        self._inner.setup(machine)

    def state_dict(self) -> dict:
        return self._inner.state_dict()

    def load_state(self, state: dict) -> None:
        self._inner.load_state(state)

    def describe(self) -> dict[str, object]:
        description = self._inner.describe()
        description["shared_stream"] = True
        return description

    # -- replay -------------------------------------------------------

    def batches(self) -> Iterator[AccessBatch]:
        views = self._handle.attach()
        for record in self._handle.records:
            yield AccessBatch(
                page_ids=None,
                num_ops=record["num_ops"],
                cpu_ns=record["cpu_ns"],
                label=record["label"],
                bytes_per_access=record["bytes_per_access"],
                **{field: views[record[field]] for field in _BATCH_ARRAYS},
            )
        # Ending here is exact, not a truncation: the executor records
        # precisely the cell's ``max_batches`` budget, and the engine
        # pulls one batch past its budget before breaking -- a finite
        # iterator and a break-after-pull produce identical results.
        # (Reusing a handle under a *larger* budget than it was
        # recorded for is unsupported; the executor never does.)


class SharedStreamFactory:
    """Picklable factory: builds :class:`SharedStreamWorkload` in workers.

    Drop-in replacement for a cell's workload factory.  Keeps the
    original factory around so consumers that introspect it (cache
    fingerprinting happens *before* substitution, but defensive) see
    the real spec via ``inner``.
    """

    __slots__ = ("inner", "handle")

    def __init__(self, inner: Callable[[], Any], handle: SharedStreamHandle):
        self.inner = inner
        self.handle = handle

    def __call__(self) -> SharedStreamWorkload:
        return SharedStreamWorkload(self.inner, self.handle)

    def __getstate__(self):
        return (self.inner, self.handle)

    def __setstate__(self, state):
        self.inner, self.handle = state
