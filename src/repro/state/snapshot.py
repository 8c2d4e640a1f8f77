"""Versioned, integrity-checked snapshots of a live experiment.

A snapshot file is a column file (:mod:`repro.state.colfile`) with the
magic ``RPSNAP\\0\\0``.  Its header carries the schema version, a
sha256 digest and the payload tree, in which every ndarray is a column
reference (see :func:`repro.state.codec.to_tree`); the arrays follow as
the file's columns.  The digest covers the header bytes, with the
digest itself blanked, and every column's bytes, so torn or bit-rotted
files are detected *before* any state is restored into a half-built
engine.  The schema version makes snapshots of another layout fail
loudly instead of resurrecting garbage (same discipline as
:data:`repro.core.cache.SCHEMA_VERSION`).
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, BinaryIO

import numpy as np

from repro.state import colfile
from repro.state.codec import from_tree, to_tree

#: Bump whenever the snapshot payload layout changes incompatibly;
#: every older generation is then refused (see :class:`SnapshotSchemaError`).
#: Schema 6 moved seven more components onto declared state fields
#: (new keys and encodings); schema 5 moved the arrays into raw columns
#: and gave Zipf and GAP streams a counted position; schemas 4 and
#: older were JSON documents.
STATE_SCHEMA_VERSION = 6

_MAGIC = b"RPSNAP\0\0"
#: The digest's placeholder while the digest is computed.
_BLANK = b"0" * 64


class SnapshotError(ValueError):
    """A snapshot file is unreadable or fails its integrity check."""


class SnapshotSchemaError(SnapshotError):
    """An intact snapshot of another schema, which this release cannot
    restore."""


def _digest(head: bytes, columns: Iterable[np.ndarray]) -> str:
    digest = hashlib.sha256(head)
    for column in columns:
        digest.update(column)
    return digest.hexdigest()


@dataclass(frozen=True)
class Snapshot:
    """One verified snapshot file: its schema, digest and payload."""

    schema: int
    digest: str
    payload: Any

    @staticmethod
    def write(fh: BinaryIO, payload: Any) -> int:
        """Write a live state payload as a snapshot file to ``fh``, open
        for binary writing at its start; returns the file size."""
        arrays: list[np.ndarray] = []
        tree = to_tree(payload, arrays)
        columns = {str(i): np.ascontiguousarray(a) for i, a in enumerate(arrays)}
        fields = {
            "schema": STATE_SCHEMA_VERSION,
            "digest": _BLANK.decode(),
            "payload": tree,
        }
        head = colfile.header(fields, columns)
        digest = _digest(head, columns.values()).encode()
        return colfile.write(fh, _MAGIC, head.replace(_BLANK, digest, 1), columns)

    @classmethod
    def read(cls, path: str | os.PathLike) -> Snapshot:
        """Read and verify the snapshot file at ``path``; the payload's
        arrays are writable copies.

        Raises :class:`SnapshotSchemaError` for an intact snapshot of
        another schema, the JSON documents of schemas 4 and older
        included, and :class:`SnapshotError` for a file that is
        unreadable or fails its digest.
        """
        source = os.fspath(path)
        try:
            found = colfile.read(source, _MAGIC)
            if found is None:  # schemas 4 and older: one JSON document
                with open(source, "rb") as fh:
                    schema = json.load(fh)["schema"]
                if not (isinstance(schema, int) and schema < STATE_SCHEMA_VERSION):
                    raise ValueError("not a snapshot file")
            else:
                head, meta, columns = found
                schema, digest = meta["schema"], meta["digest"]
                blank = head.replace(digest.encode(), _BLANK, 1)
                actual = _digest(blank, columns.values())
        except Exception as exc:  # OS, json and numpy errors
            raise SnapshotError(f"snapshot {source} is unreadable: {exc}") from exc
        if found is not None and actual != digest:
            raise SnapshotError(
                f"snapshot {source} digest mismatch: recorded {digest[:12]}..., "
                f"computed {actual[:12]}..."
            )
        if schema != STATE_SCHEMA_VERSION:
            raise SnapshotSchemaError(
                f"snapshot {source} has schema {schema}, but this release "
                f"restores only schema {STATE_SCHEMA_VERSION}; resume it with "
                "the release that wrote it, or move it aside to start over"
            )
        payload = from_tree(meta["payload"], list(columns.values()))
        return cls(schema, digest, payload)
