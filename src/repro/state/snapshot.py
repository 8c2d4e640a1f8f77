"""Versioned, integrity-checked snapshots of a live experiment.

A :class:`Snapshot` wraps one encoded state payload (see
:mod:`repro.state.codec`) with a schema version and a sha256 digest of
the payload's canonical JSON rendering.  The digest makes torn or
bit-rotted checkpoint files detectable *before* any state is restored
into a half-built engine; the schema version makes snapshots from
incompatible layouts miss cleanly instead of resurrecting garbage
(same discipline as :data:`repro.core.cache.SCHEMA_VERSION`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any

from repro.state.codec import decode_state, encode_state

#: Bump whenever the snapshot payload layout changes incompatibly;
#: every older generation then fails verification and is skipped.
#: Schema 4 added the workload's stream position; schema-3 snapshots,
#: which resumed by regenerating the completed batches, are refused.
STATE_SCHEMA_VERSION = 4


class SnapshotError(ValueError):
    """A snapshot failed schema or integrity verification."""


def payload_digest(encoded_payload: Any) -> str:
    """sha256 hex digest of the canonical JSON form of the payload."""
    canonical = json.dumps(
        encoded_payload, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Snapshot:
    """One schema-stamped, digest-protected state payload."""

    schema: int
    digest: str
    #: Codec-encoded (JSON-safe) payload; decode with :meth:`decoded`.
    payload: Any

    @classmethod
    def create(cls, payload: Any) -> Snapshot:
        """Snapshot a live (un-encoded) state payload."""
        encoded = encode_state(payload)
        return cls(
            schema=STATE_SCHEMA_VERSION,
            digest=payload_digest(encoded),
            payload=encoded,
        )

    def verify(self) -> None:
        """Raise :class:`SnapshotError` unless schema and digest check out."""
        if self.schema != STATE_SCHEMA_VERSION:
            raise SnapshotError(
                f"snapshot schema {self.schema} != supported "
                f"{STATE_SCHEMA_VERSION}"
            )
        actual = payload_digest(self.payload)
        if actual != self.digest:
            raise SnapshotError(
                f"snapshot digest mismatch: recorded {self.digest[:12]}..., "
                f"computed {actual[:12]}..."
            )

    def decoded(self) -> Any:
        """The payload with ndarray markers decoded back to arrays."""
        return decode_state(self.payload)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "digest": self.digest,
            "payload": self.payload,
        }

    @classmethod
    def from_json_dict(cls, data: Any) -> Snapshot:
        """Parse a loaded JSON document; raises SnapshotError on shape
        problems (verification is separate -- call :meth:`verify`)."""
        if not isinstance(data, dict):
            raise SnapshotError(f"snapshot document must be a dict, got {type(data).__name__}")
        missing = {"schema", "digest", "payload"} - set(data)
        if missing:
            raise SnapshotError(f"snapshot document missing keys: {sorted(missing)}")
        schema, digest = data["schema"], data["digest"]
        if not isinstance(schema, int) or not isinstance(digest, str):
            raise SnapshotError("snapshot schema/digest have wrong types")
        return cls(schema=schema, digest=digest, payload=data["payload"])
