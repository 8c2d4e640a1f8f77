"""Content-addressed on-disk cache for experiment results.

An experiment cell is fully determined by its spec -- workload name +
parameters, policy name + parameters, and the
:class:`~repro.core.config.ExperimentConfig` (the simulator is
deterministic given a seed, see DESIGN.md).  The cache therefore keys a
serialized :class:`~repro.core.metrics.ExperimentResult` by a stable
hash of the spec: a sorted-key JSON rendering of every parameter plus a
schema version.  Any change to a parameter, to the config, or to the
result schema changes the key and misses cleanly; stale entries are
never returned, only orphaned.

Layout: one ``<sha256>.json`` file per cell under ``cache_dir``.
Writes are atomic and durable (temp file, fsync, ``os.replace``) so a
crashed or concurrent run can never leave a half-written entry that a
later run would read.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.core.config import ExperimentConfig
from repro.core.metrics import ExperimentResult
from repro.state.checkpoint import quarantine, write_atomically

#: Bump whenever the meaning of a cell spec or the ExperimentResult
#: schema changes; every old entry then misses.  Schema 2: FreqTier's
#: demotion scan no longer collects a page twice when a pass laps.
SCHEMA_VERSION = 2


def config_to_dict(config: ExperimentConfig) -> dict[str, Any]:
    """All cell-identity-relevant fields of a config, JSON-ready."""
    memory = config.memory
    return {
        "local_fraction": config.local_fraction,
        "ratio_label": config.ratio_label,
        "max_batches": config.max_batches,
        "max_accesses": config.max_accesses,
        "warmup_fraction": config.warmup_fraction,
        "seed": config.seed,
        "memory": {
            "name": memory.name,
            "local": dataclasses.asdict(memory.local),
            "cxl": dataclasses.asdict(memory.cxl),
        },
    }


def cell_fingerprint(spec_dict: dict[str, Any]) -> str:
    """Stable sha256 hex digest of a cell-spec dict.

    ``spec_dict`` must be JSON-serializable; key order never matters
    (``sort_keys=True``), and the schema version is folded in so cache
    entries from incompatible layouts can never be confused.
    """
    payload = {"schema": SCHEMA_VERSION, "cell": spec_dict}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed ``fingerprint -> ExperimentResult`` store."""

    def __init__(self, cache_dir: str | os.PathLike):
        self.cache_dir = Path(cache_dir)
        if self.cache_dir.exists() and not self.cache_dir.is_dir():
            raise NotADirectoryError(
                f"cache path exists and is not a directory: {self.cache_dir}"
            )
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path_for(self, fingerprint: str) -> Path:
        return self.cache_dir / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> ExperimentResult | None:
        """Cached result for ``fingerprint``, or None on a miss.

        A corrupt entry -- truncated write survived by a crash, stray
        bytes, a payload that no longer deserializes -- is treated as a
        miss and **quarantined** (renamed to ``<fingerprint>.corrupt``)
        so it is never re-read, never silently deleted (it stays on
        disk for diagnosis), and the recomputed result can take its
        place.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self.misses += 1
            quarantine(path)
            return None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            self.misses += 1
            return None
        try:
            return_value = ExperimentResult.from_dict(payload["result"])
        except (KeyError, TypeError, ValueError, AttributeError):
            self.misses += 1
            quarantine(path)
            return None
        self.hits += 1
        return return_value

    def put(self, fingerprint: str, result: ExperimentResult) -> None:
        """Store ``result`` under ``fingerprint`` (atomic, fsync'd write)."""
        payload = {"schema": SCHEMA_VERSION, "result": result.to_dict()}
        data = json.dumps(payload).encode("utf-8")
        write_atomically(self.path_for(fingerprint), lambda fh: fh.write(data))

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    def _entries(self) -> list[Path]:
        """Real cache entries -- excludes in-flight ``.tmp-*`` files
        left by a writer that is still running (or crashed mid-put)."""
        return [
            path
            for path in self.cache_dir.glob("*.json")
            if not path.name.startswith(".tmp-")
        ]

    def __len__(self) -> int:
        return len(self._entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self._entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultCache({str(self.cache_dir)!r}, entries={len(self)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
