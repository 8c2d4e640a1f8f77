"""Append-only sweep journal: completed cells survive interruption.

The parallel executor's result cache already makes *cached* cells
free to recompute, but a sweep interrupted between ``put`` calls still
re-plans every cell.  The journal records each completed cell --
``{"fingerprint": ..., "result": ...}`` as one JSON line, flushed and
fsync'd immediately -- so a re-invoked ``sweep``/``compare`` skips
cells that already finished even when the cache was disabled or lives
elsewhere.  A crash mid-append leaves at most one truncated final
line, which loading tolerates (the entry is simply not yet durable).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.metrics import ExperimentResult


class SweepJournal:
    """One JSONL file mapping cell fingerprints to finished results."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._results: dict[str, dict] = {}
        self.dropped_lines = 0
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                # A torn final append from a killed run -- or any other
                # damaged line -- costs one entry, never the journal.
                self.dropped_lines += 1
                continue
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("fingerprint"), str)
                and isinstance(entry.get("result"), dict)
            ):
                self._results[entry["fingerprint"]] = entry["result"]
            else:
                self.dropped_lines += 1

    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._results

    def completed(self, fingerprint: str) -> ExperimentResult | None:
        """The journalled result for ``fingerprint``, or None.

        An entry whose payload no longer deserializes (schema drift) is
        treated as absent rather than raising.
        """
        # Imported here: repro.core.metrics reaches the components that
        # import this package's codec, so a module-level import cycles.
        from repro.core.metrics import ExperimentResult

        payload = self._results.get(fingerprint)
        if payload is None:
            return None
        try:
            return ExperimentResult.from_dict(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None

    def record(self, fingerprint: str, result: ExperimentResult) -> None:
        """Append one completed cell durably (flush + fsync)."""
        payload = result.to_dict()
        line = json.dumps({"fingerprint": fingerprint, "result": payload})
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._results[fingerprint] = payload
