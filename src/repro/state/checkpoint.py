"""Durable checkpoint generations with corruption fallback.

A :class:`CheckpointManager` owns one directory of rotated snapshot
generations (``snap-<seq>.ckpt``, see :mod:`repro.state.snapshot`).
Writes are atomic and durable (:func:`write_atomically`, which
:meth:`repro.core.cache.ResultCache.put` uses too), so a crash mid-save
can never leave a half-written generation that a resume would read.  Loads walk generations newest first, verify them, and
*quarantine* anything unreadable or failing its digest (renamed
``*.corrupt``, kept for diagnosis) before falling back to the
next-newest generation -- a single corrupted file costs one checkpoint
interval of progress, never the run.  An intact generation of another
schema, such as the ``snap-<seq>.json`` documents of schemas 4 and
older, is refused instead: it stays in place and the load raises.
"""

from __future__ import annotations

import os
import re
import tempfile
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO

from repro.state.snapshot import Snapshot, SnapshotError, SnapshotSchemaError

_SNAP_RE = re.compile(r"^snap-(\d{8})\.(?:json|ckpt|corrupt)$")


def write_atomically(path: Path, write: Callable[[BinaryIO], Any]) -> None:
    """Create ``path`` from ``write(fh)`` atomically and durably.

    ``write`` fills a temp file (``.tmp-*``) in the same directory,
    which is fsync'd and then renamed over ``path``; on any failure the
    temp file is removed and ``path`` is untouched.
    """
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=path.suffix)
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def quarantine(path: Path) -> None:
    """Move an invalid file aside as ``*.corrupt`` (best-effort, never
    raises): it is never read again but stays for diagnosis."""
    try:
        os.replace(path, path.with_suffix(".corrupt"))
    except OSError:
        pass


@dataclass(frozen=True)
class LoadedCheckpoint:
    """A successfully verified generation, decoded and ready to restore."""

    payload: Any
    path: Path
    generation: int


class CheckpointManager:
    """Directory-backed store of rotated, verified snapshot generations."""

    def __init__(self, directory: str | os.PathLike, keep: int = 3):
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        if self.directory.exists() and not self.directory.is_dir():
            raise NotADirectoryError(
                f"checkpoint path exists and is not a directory: "
                f"{self.directory}"
            )
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.saves = 0

    # -- naming -----------------------------------------------------------

    @staticmethod
    def _seq_of(path: Path) -> int | None:
        match = _SNAP_RE.match(path.name)
        return int(match.group(1)) if match else None

    def generations(self) -> list[Path]:
        """Generation files of any schema, oldest first (corrupt excluded)."""
        found = [
            path
            for path in self.directory.glob("snap-*")
            if self._seq_of(path) is not None and path.suffix != ".corrupt"
        ]
        return sorted(found, key=lambda p: self._seq_of(p))

    def _next_seq(self) -> int:
        """One past the highest sequence ever used (corrupt files count,
        so a quarantined generation's number is never reused)."""
        highest = 0
        for path in self.directory.iterdir():
            seq = self._seq_of(path)
            if seq is not None:
                highest = max(highest, seq)
        return highest + 1

    # -- save -------------------------------------------------------------

    def save(self, payload: Any) -> Path:
        """Write ``payload`` as the newest generation (atomic), rotate."""
        seq = self._next_seq()
        path = self.directory / f"snap-{seq:08d}.ckpt"
        write_atomically(path, lambda fh: Snapshot.write(fh, payload))
        self.saves += 1
        self._rotate()
        return path

    def _rotate(self) -> None:
        generations = self.generations()
        for stale in generations[: max(0, len(generations) - self.keep)]:
            stale.unlink(missing_ok=True)

    # -- load -------------------------------------------------------------

    def load_latest(self) -> LoadedCheckpoint | None:
        """Newest generation that verifies, or None if none does.

        Unreadable generations and digest mismatches are quarantined on
        the way down, so the next load does not re-verify known-bad
        files.  An intact generation of another schema stops the walk:
        it stays in place and :class:`SnapshotSchemaError`, naming both
        schemas, is raised rather than fall back to an older
        generation or a fresh start.
        """
        for path in reversed(self.generations()):
            try:
                snapshot = Snapshot.read(path)
            except SnapshotSchemaError:
                raise
            except SnapshotError:
                quarantine(path)
                continue
            return LoadedCheckpoint(
                payload=snapshot.payload,
                path=path,
                generation=self._seq_of(path),
            )
        return None

    # -- introspection ----------------------------------------------------

    def inspect(self) -> list[dict[str, Any]]:
        """Verification status of every generation (no quarantining).

        Used by ``repro.cli checkpoint inspect``: each entry reports the
        generation number, file, validity, and -- for valid snapshots --
        the recorded progress summary when present.
        """
        report: list[dict[str, Any]] = []
        for path in self.generations():
            entry: dict[str, Any] = {
                "generation": self._seq_of(path),
                "file": path.name,
                "bytes": path.stat().st_size if path.exists() else 0,
            }
            try:
                snapshot = Snapshot.read(path)
            except SnapshotError as exc:
                entry.update(valid=False, error=str(exc))
            else:
                entry.update(
                    valid=True,
                    schema=snapshot.schema,
                    digest=snapshot.digest,
                )
                payload = snapshot.payload
                if isinstance(payload, dict) and isinstance(
                    payload.get("engine"), dict
                ):
                    payload = payload["engine"]  # a daemon snapshot
                if isinstance(payload, dict):
                    for section in ("identity", "progress"):
                        value = payload.get(section)
                        if isinstance(value, dict):
                            entry[section] = value
            report.append(entry)
        return report
