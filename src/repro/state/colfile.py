"""Column files: named flat arrays behind a JSON header.

Trace files and checkpoint snapshots share this form: an 8-byte magic
naming the file's kind, the header's length as a little-endian uint64,
the JSON header, then each column's raw bytes at a 64-byte-aligned
offset.  The header's ``"columns"`` maps each column name to ``[dtype,
length, offset]``, the offset counted from the first aligned byte past
the header; the rest of the header belongs to the file's kind.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Mapping
from typing import Any, BinaryIO

import numpy as np

_ALIGN = 64
_PREFIX = 16  # the magic and the header's length
#: Bytes written at a time.
SLICE = 1 << 23


def _aligned(n: int) -> int:
    return -(-n // _ALIGN) * _ALIGN


def header(fields: Mapping, columns: Mapping[str, np.ndarray]) -> bytes:
    """The header of a file of ``columns``: ``fields`` plus their layout."""
    layout, offset = {}, 0
    for name, column in columns.items():
        layout[name] = [column.dtype.str, int(column.size), offset]
        offset = _aligned(offset + column.nbytes)
    return json.dumps({**fields, "columns": layout}).encode()


def write(
    fh: BinaryIO,
    magic: bytes,
    head: bytes,
    columns: Mapping[str, np.ndarray],
    written: Callable[[str, int], None] | None = None,
) -> int:
    """Write a column file to ``fh``, open at its start; returns its size.

    ``head`` is the :func:`header` of ``columns``.  Each column goes out
    in slices of :data:`SLICE` bytes, and ``written(name, start)`` is
    called once the slice at byte ``start`` of the column is written.
    """
    fh.write(magic + len(head).to_bytes(8, "little") + head)
    base = offset = _aligned(_PREFIX + len(head))
    for name, column in columns.items():
        fh.seek(offset)
        data = np.ascontiguousarray(column).reshape(-1).view(np.uint8)
        for start in range(0, data.size, SLICE):
            fh.write(data[start : start + SLICE].data)
            if written is not None:
                written(name, start)
        offset = base + _aligned(offset - base + data.size)
    fh.truncate(offset)
    return offset


def read(
    source: str, magic: bytes
) -> tuple[bytes, dict[str, Any], dict[str, np.ndarray]] | None:
    """The raw header, the parsed header and read-only memory-mapped
    columns of the file at ``source``; ``None`` unless it begins with
    ``magic``."""
    with open(source, "rb") as fh:
        if fh.read(len(magic)) != magic:
            return None
        length = int.from_bytes(fh.read(8), "little")
        if _PREFIX + length > os.fstat(fh.fileno()).st_size:
            raise ValueError("the header runs past the end of the file")
        head = fh.read(length)
    meta = json.loads(head)
    # A plain view: per-batch slices of a memmap subclass cost more.
    raw = np.asarray(np.memmap(source, dtype=np.uint8, mode="r"))
    base = _aligned(_PREFIX + length)
    columns = {}
    for name, (dtype, size, offset) in meta["columns"].items():
        dtype = np.dtype(dtype)
        start = base + int(offset)
        stop = start + int(size) * dtype.itemsize
        if not base <= start <= stop <= raw.size:
            raise ValueError(f"column {name} runs past the end of the file")
        columns[name] = raw[start:stop].view(dtype)
    return head, meta, columns
