"""Recorded access streams: one columnar format, recorder and replay loop.

A :class:`Recording` holds run-compressed batches as columns (see
``docs/API.md``, Workloads): the concatenated ``head_page_ids``,
``run_starts`` and ``run_counts``, per-batch end offsets into them and
per-batch scalars, with labels as a sorted vocabulary plus codes.
:func:`record` is the only builder and :meth:`Recording.batches` the
only replay loop.  The columns live on the heap or in one uncompressed
column file (:mod:`repro.state.colfile`, format version 1) with the
magic ``RPTRACE\\0``.  :meth:`Recording.load` memory-maps such a file
and refuses any other; :meth:`Recording.validate` checks its columns.
"""

from __future__ import annotations

import itertools
import mmap
import os
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.sampling.events import AccessBatch
from repro.state import colfile

FORMAT_VERSION = 1

_MAGIC = b"RPTRACE\0"

#: Every column, in file order.
_COLUMNS = (
    "head_page_ids", "run_starts", "run_counts", "head_batch_ends",
    "run_batch_ends", "num_ops", "cpu_ns", "bytes_per_access", "label_codes",
)
#: The columns with one entry per batch.
_PER_BATCH = _COLUMNS[3:]
#: The dtypes each column may hold: what :func:`record` writes, and
#: the head dtypes live batches have.
_DTYPES = {
    "head_page_ids": (np.int32, np.int64),
    **dict.fromkeys(_COLUMNS[1:5], (np.int64,)),
    **dict.fromkeys(_COLUMNS[5:8], (np.float64,)),
    "label_codes": (np.int32,),
}


class StreamTooLarge(MemoryError):
    """A stream recording stopped before it outgrew the memory budget."""

    def __init__(self, recorded_bytes: int, budget: int):
        super().__init__(
            f"stream recording stopped at {recorded_bytes} bytes: "
            f"it would exceed the {budget}-byte memory budget"
        )
        self.recorded_bytes = recorded_bytes
        self.budget = budget


def _memory_budget() -> int:
    """Bytes one recording may hold: half the host's available memory
    (``MemAvailable`` where the kernel reports it, else free pages),
    leaving the other half to the processes that replay the stream."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024 // 2
    except OSError:
        pass
    return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2


class _Column:
    """A growable flat array in an anonymous mapping (not the malloc
    heap, so dropping it or ``madvise`` returns the memory to the OS).
    It maps twice the room it projects for ``batches_left`` more batches
    like the last; untouched room costs no resident memory."""

    def __init__(self) -> None:
        self.buffer: mmap.mmap | None = None
        self.data = np.empty(0, dtype=np.int64)
        self.size = 0

    def append(self, values: np.ndarray, batches_left: int) -> None:
        dtype = values.dtype
        if self.size:
            dtype = np.promote_types(self.data.dtype, dtype)
        end = self.size + values.size
        if end > self.data.size or dtype != self.data.dtype:
            room = 2 * (end + values.size * batches_left) * dtype.itemsize
            buffer = mmap.mmap(-1, max(room, dtype.itemsize), flags=mmap.MAP_PRIVATE)
            grown = np.frombuffer(buffer, dtype=dtype)
            grown[: self.size] = self.data[: self.size]
            self.buffer, self.data = buffer, grown
        self.data[self.size : end] = values
        self.size = end


def record(
    batches: Iterable[AccessBatch],
    footprint_pages: int,
    max_batches: int | None = None,
) -> Recording:
    """Copy up to ``max_batches`` batches (all, when ``None``) into a
    heap :class:`Recording`.

    Raises :class:`StreamTooLarge` after the first batch when its size
    times ``max_batches`` exceeds the memory budget, else as soon as
    the recorded bytes do: at most one batch past the budget.
    """
    budget = _memory_budget()
    columns = {name: _Column() for name in _COLUMNS[:3]}
    heads, starts = columns["head_page_ids"], columns["run_starts"]
    ends: list[tuple[int, int]] = []
    scalars: list[tuple[float, float, float]] = []
    labels: list[str] = []
    for batch in itertools.islice(batches, max_batches):
        left = max_batches - len(labels) - 1 if max_batches else 0
        for name, column in columns.items():
            column.append(getattr(batch, name), left)
        ends.append((heads.size, starts.size))
        scalars.append((batch.num_ops, batch.cpu_ns, batch.bytes_per_access))
        labels.append(batch.label)
        # run_starts and run_counts align: 16 bytes per run.
        recorded = heads.size * heads.data.itemsize + 16 * starts.size
        first = len(labels) == 1 and max_batches is not None
        if (recorded * max_batches if first else recorded) > budget:
            raise StreamTooLarge(recorded, budget)
    vocab, codes = np.unique(np.array(labels, dtype=str), return_inverse=True)
    head_ends, run_ends = np.array(ends, dtype=np.int64).reshape(-1, 2).T.copy()
    num_ops, cpu_ns, bpa = np.array(scalars, dtype=np.float64).reshape(-1, 3).T.copy()
    recording = Recording(
        **{name: column.data[: column.size] for name, column in columns.items()},
        head_batch_ends=head_ends,
        run_batch_ends=run_ends,
        num_ops=num_ops,
        cpu_ns=cpu_ns,
        bytes_per_access=bpa,
        label_codes=codes.astype(np.int32),
        labels=vocab,
        footprint_pages=footprint_pages,
    )
    recording._buffers = {name: column.buffer for name, column in columns.items()}
    for name in _COLUMNS:
        getattr(recording, name).flags.writeable = False
    return recording


class Recording:
    """A recorded stream's columns (see the module docstring)."""

    def __init__(
        self, *, labels: Sequence[str], footprint_pages: int, **columns: np.ndarray
    ):
        for name in _COLUMNS:
            setattr(self, name, columns[name])
        self.labels = [str(label) for label in labels]
        self.footprint_pages = int(footprint_pages)
        #: The mappings :func:`record` grew the columns in, by column.
        self._buffers: dict[str, mmap.mmap | None] = {}

    def __len__(self) -> int:
        return int(self.head_batch_ends.size)

    def batches(self, start: int = 0) -> Iterator[AccessBatch]:
        """Replay the stream from batch ``start`` as zero-copy views of
        the columns (``ValueError`` unless ``0 <= start <= len(self)``)."""
        if not 0 <= start <= len(self):
            raise ValueError(
                f"cannot replay from batch {start} of a {len(self)}-batch recording"
            )
        labels = [self.labels[code] for code in self.label_codes[start:].tolist()]
        heads, starts, counts = self.head_page_ids, self.run_starts, self.run_counts
        h = int(self.head_batch_ends[start - 1]) if start else 0
        r = int(self.run_batch_ends[start - 1]) if start else 0
        for label, h_end, r_end, ops, cpu, bpa in zip(
            labels,
            self.head_batch_ends[start:].tolist(),
            self.run_batch_ends[start:].tolist(),
            self.num_ops[start:].tolist(),
            self.cpu_ns[start:].tolist(),
            self.bytes_per_access[start:].tolist(),
        ):
            yield AccessBatch(
                None,
                num_ops=ops,
                cpu_ns=cpu,
                label=label,
                bytes_per_access=bpa,
                head_page_ids=heads[h:h_end],
                run_starts=starts[r:r_end],
                run_counts=counts[r:r_end],
            )
            h, r = h_end, r_end

    # -- the file form ------------------------------------------------

    def save(self, path: str | os.PathLike) -> int:
        """Write the recording to ``path`` (a failed write removes the
        partial file); returns the file size.

        A recording that :func:`record` built moves into the file: each
        slice of a column goes back to the OS once written, so saving
        never holds the stream twice, and the recording then reads its
        columns from the file (a failed save leaves it unusable).
        """
        columns = {name: getattr(self, name) for name in _COLUMNS}
        head = colfile.header(
            {
                "format_version": FORMAT_VERSION,
                "footprint_pages": self.footprint_pages,
                "labels": self.labels,
            },
            columns,
        )

        def release(name: str, start: int) -> None:
            buffer = self._buffers.get(name)
            if buffer is not None:
                buffer.madvise(mmap.MADV_DONTNEED, start, colfile.SLICE)

        try:
            with open(path, "wb") as fh:
                size = colfile.write(fh, _MAGIC, head, columns, release)
        except BaseException:
            if os.path.exists(path):
                os.unlink(path)
            raise
        if self._buffers:
            vars(self).update(vars(Recording.load(path)))
        return size

    @classmethod
    def load(cls, path: str | os.PathLike) -> Recording:
        """Open a saved recording, memory-mapped.  Only the layout is
        checked here: call :meth:`validate` (which reads every page) on
        outside input."""
        source = os.fspath(path)
        try:
            found = colfile.read(source, _MAGIC)
            if found is not None:
                __, meta, columns = found
                if meta["format_version"] == FORMAT_VERSION:
                    return cls(
                        labels=meta["labels"],
                        footprint_pages=meta["footprint_pages"],
                        **columns,
                    )
        except Exception as exc:  # OS, numpy and json errors
            raise ValueError(f"trace {source!r} is unreadable: {exc}") from exc
        raise ValueError(f"trace {source!r} is not a version-{FORMAT_VERSION} trace file")

    def validate(self, source: str) -> None:
        """Reject anything a replay could trip over, raising
        ``ValueError`` that names ``source`` and the defect."""

        def require(ok: bool, defect: str) -> None:
            if not ok:
                raise ValueError(f"trace {source!r} {defect}")

        n = len(self)
        for name, dtypes in _DTYPES.items():
            column = getattr(self, name)
            require(
                column.ndim == 1 and column.dtype in dtypes,
                f"has {name} of dtype {column.dtype} and shape {column.shape}, "
                f"not a flat {' or '.join(np.dtype(d).name for d in dtypes)} column",
            )
            if name in _PER_BATCH:
                require(column.size == n, f"has {column.size} {name} for {n} batches")
        for ends, column in (
            (self.head_batch_ends, self.head_page_ids),
            (self.run_batch_ends, self.run_starts),
            (self.run_batch_ends, self.run_counts),
        ):
            require(
                (ends[-1] if n else 0) == column.size
                and not np.any(np.diff(ends, prepend=0) < 0),
                f"has malformed batch_ends: they must be non-decreasing "
                f"and end at the {column.size} recorded entries",
            )
        heads, starts, counts = self.head_page_ids, self.run_starts, self.run_counts
        limit = self.footprint_pages
        require(not np.any(counts < 0), "has negative run_counts")
        require(
            not heads.size or (heads.min() >= 0 and heads.max() < limit),
            f"has head_page_ids outside [0, {limit})",
        )
        # With run_counts >= 0, this also bounds run_starts by limit.
        require(
            not np.any((starts < 0) | (counts > limit - starts)),
            f"has runs outside [0, {limit})",
        )
        require(
            bool(np.all(self.num_ops >= 0) and np.all(self.cpu_ns >= 0)),
            "has negative num_ops or cpu_ns",
        )
        require(
            bool(np.all(self.bytes_per_access > 0)),
            "has non-positive bytes_per_access",
        )
        codes = self.label_codes
        require(
            not (codes.size and (codes.min() < 0 or codes.max() >= len(self.labels))),
            f"has label_codes outside its {len(self.labels)}-label vocabulary",
        )
