"""Zero-copy access-stream sharing across worker processes.

A reproduction grid typically runs the *same* workload cell against
many policies.  Instead of every worker regenerating the identical
multi-megabyte access stream, the parent generates it **once**, saves
it as one recording file (:mod:`repro.workloads.recording`) in
``/dev/shm`` -- the system temp directory where that does not exist --
and ships workers a tiny picklable handle; each worker memory-maps the
file read-only and replays the batches as zero-copy NumPy views.  The
parent holds one copy: saving moves the recording into the file slice
by slice, freeing each slice's memory as it is written.

- **Keyed by workload fingerprint.**  A file serves every cell whose
  (workload spec, batch budget) content-hash matches.
- **Replay wraps the real workload.**  :class:`SharedStreamWorkload`
  builds the true workload in the worker and delegates layout, naming
  and description to it, so region allocation and placement are
  *bit-identical* to the per-cell path.  A replay always starts at the
  first batch and has no stream position to checkpoint, so cells that
  checkpoint never share a stream.
- **Strict fallback.**  Unbounded streams, closure factories, an
  unwritable temp directory or a stream over the recorder's memory
  budget (``StreamTooLarge``) fall back to per-cell generation;
  nothing observable changes but speed.
- **Lifecycle.**  The publishing process deletes every file when its
  grid finishes (plus an ``atexit`` net for crashed runs).
"""

from __future__ import annotations

import atexit
import contextlib
import os
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any, Callable

from repro.sampling.events import AccessBatch
from repro.workloads.recording import Recording, record


def publish_stream(
    workload_factory: Callable[[], Any], max_batches: int
) -> "SharedStreamHandle":
    """Record up to ``max_batches`` batches of a fresh workload's stream
    into a new shared recording file; the caller must eventually call
    :meth:`SharedStreamHandle.unlink`.

    The workload is set up on a scratch all-local machine.  Page ids
    depend only on the workload's own region allocation order
    (``AddressSpace.map_region`` assigns start pages sequentially), so
    the scratch machine's tier shape cannot leak into the recording.
    Raises ``StreamTooLarge`` over the memory budget, and whatever the
    file system raises; callers fall back to per-cell generation.
    """
    # Local imports: repro.core.runner imports this package's siblings.
    from repro.core.runner import build_all_local_machine
    from repro.memsim.tier import CXL1_CONFIG

    workload = workload_factory()
    workload.setup(
        build_all_local_machine(workload.footprint_pages, CXL1_CONFIG)
    )
    recording = record(
        workload.batches(), workload.footprint_pages, max_batches
    )
    directory = "/dev/shm" if os.path.isdir("/dev/shm") else None
    fd, path = tempfile.mkstemp(prefix="repro-stream-", dir=directory)
    os.close(fd)
    # Saving moves the recording into the file: one copy throughout.
    nbytes = recording.save(path)
    _PUBLISHED[path] = os.getpid()
    return SharedStreamHandle(path, nbytes)


#: Published files not deleted yet, with the pid that published each
#: (a forked child inherits this dict, not the files).
_PUBLISHED: dict[str, int] = {}


@atexit.register
def _unlink_published() -> None:
    for path in list(_PUBLISHED):
        SharedStreamHandle(path, 0).unlink()


@dataclass(frozen=True)
class SharedStreamHandle:
    """Names a published recording file and its size; pickles by value."""

    path: str
    nbytes: int

    def open(self) -> Recording:
        """The recording, memory-mapped read-only.  Not validated:
        :func:`publish_stream` wrote it, and validating would fault in
        every page during each cell's set-up."""
        return Recording.load(self.path)

    def unlink(self) -> None:
        """Delete the file (in the publishing process only; idempotent)."""
        if _PUBLISHED.get(self.path) == os.getpid():
            del _PUBLISHED[self.path]
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)


#: The stream-position interface a replayed recording must not forward
#: to the wrapped workload, whose position the replay never advances.
_POSITION_API = frozenset({"state_dict", "load_state", "load_position", "position"})


class SharedStreamWorkload:
    """A workload whose ``batches()`` replays a shared recorded stream.

    Wraps the real workload (built from ``inner_factory`` in this
    process) for everything *except* batch generation and stream
    position: layout, allocation, naming and description come from the
    genuine instance, so an engine driving this workload is
    indistinguishable from one driving the original -- the recorded
    batches are, by construction, exactly what the original would have
    generated.  The replay has no position, so checkpointing or
    resuming through it raises ``AttributeError``.
    """

    def __init__(
        self, inner_factory: Callable[[], Any], handle: SharedStreamHandle
    ):
        self._inner = inner_factory()
        self._handle = handle

    def __getattr__(self, name: str) -> Any:
        # Only reached for attributes this class lacks: name, seed,
        # footprint_pages, machine, setup(), ...
        if name.startswith("_"):
            raise AttributeError(name)
        if name in _POSITION_API:
            raise AttributeError(
                f"{name}: a shared stream replays from its first batch and "
                "has no position to checkpoint or resume"
            )
        return getattr(self._inner, name)

    def describe(self) -> dict[str, object]:
        description = self._inner.describe()
        description["shared_stream"] = True
        return description

    # -- replay -------------------------------------------------------

    def batches(self) -> Iterator[AccessBatch]:
        # Ending here is exact, not a truncation: the executor records
        # precisely the cell's ``max_batches`` budget, and the engine
        # pulls one batch past its budget before breaking -- a finite
        # iterator and a break-after-pull produce identical results.
        # (Reusing a handle under a *larger* budget than it was
        # recorded for is unsupported; the executor never does.)
        return self._handle.open().batches()


@dataclass(eq=False)
class SharedStreamFactory:
    """Picklable factory: builds :class:`SharedStreamWorkload` in workers.

    Drop-in replacement for a cell's workload factory.  Keeps the
    original factory around so consumers that introspect it (cache
    fingerprinting happens *before* substitution, but defensive) see
    the real spec via ``inner``.
    """

    inner: Callable[[], Any]
    handle: SharedStreamHandle

    def __call__(self) -> SharedStreamWorkload:
        return SharedStreamWorkload(self.inner, self.handle)
