"""CheckpointManager: rotation, corruption fallback, inspection."""

from __future__ import annotations

import pathlib
import shutil

import numpy as np
import pytest

from repro.state import (
    STATE_SCHEMA_VERSION,
    CheckpointManager,
    SnapshotSchemaError,
)

SCHEMA4 = pathlib.Path(__file__).parent / "data" / "schema4" / "snap-00000001.json"
#: How a schema-4 generation is refused.
REFUSED = f"schema 4.*only schema {STATE_SCHEMA_VERSION}"


def _payload(n: int) -> dict:
    return {
        "progress": {"batches_done": n, "now_ns": float(n)},
        "placement": np.full(256, n, dtype=np.int64),
    }


def _flip(path: pathlib.Path, index: int) -> None:
    """Flip the low bit of one byte, as bit rot would."""
    data = bytearray(path.read_bytes())
    data[index] ^= 0x01
    path.write_bytes(bytes(data))


class TestRotation:
    def test_keeps_only_newest_generations(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        for n in range(5):
            mgr.save(_payload(n))
        names = [p.name for p in mgr.generations()]
        assert names == [
            "snap-00000003.ckpt",
            "snap-00000004.ckpt",
            "snap-00000005.ckpt",
        ]

    def test_load_latest_returns_newest(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for n in range(3):
            mgr.save(_payload(n))
        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 2
        assert loaded.generation == 3

    def test_empty_directory_loads_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_keep_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            CheckpointManager(tmp_path, keep=0)

    def test_path_collision_with_file(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        with pytest.raises(NotADirectoryError):
            CheckpointManager(target)


class TestCorruptionFallback:
    def test_corrupt_newest_falls_back_to_previous(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(1))
        newest = mgr.save(_payload(2))
        newest.write_text("{ torn", encoding="utf-8")
        loaded = CheckpointManager(tmp_path).load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 1
        # The bad generation was quarantined, not deleted.
        assert (tmp_path / "snap-00000002.corrupt").exists()

    def test_digest_mismatch_is_treated_as_corrupt(self, tmp_path):
        # One flipped bit in a header scalar: batches_done 2 -> 3.
        self._assert_flip_is_quarantined(
            tmp_path, lambda data: data.index(b'"batches_done": 2') + 16
        )

    def test_flipped_column_byte_is_quarantined(self, tmp_path):
        # Inside the placement column.
        self._assert_flip_is_quarantined(tmp_path, lambda data: len(data) - 256 * 8 + 1000)

    @staticmethod
    def _assert_flip_is_quarantined(tmp_path, index_of) -> None:
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(1))
        newest = mgr.save(_payload(2))
        _flip(newest, index_of(newest.read_bytes()))
        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 1
        assert np.array_equal(loaded.payload["placement"], np.full(256, 1))
        assert not newest.exists()
        assert (tmp_path / "snap-00000002.corrupt").exists()

    def test_all_corrupt_loads_none(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        for n in range(2):
            path = mgr.save(_payload(n))
            path.write_text("garbage")
        assert mgr.load_latest() is None
        assert len(list(tmp_path.glob("*.corrupt"))) == 2

    def test_quarantined_sequence_numbers_never_reused(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        path = mgr.save(_payload(1))
        path.write_text("garbage")
        assert mgr.load_latest() is None  # quarantines snap-...1
        newest = mgr.save(_payload(2))
        assert newest.name == "snap-00000002.ckpt"


class TestInspect:
    def test_reports_validity_and_progress(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(10))
        bad = mgr.save(_payload(20))
        bad.write_text("{ torn")
        report = mgr.inspect()
        assert len(report) == 2
        good, torn = report
        assert good["valid"] is True
        assert good["progress"]["batches_done"] == 10
        assert torn["valid"] is False
        assert "error" in torn
        # inspect() never quarantines -- the torn file stays in place.
        assert bad.exists()

    def test_reports_engine_progress_of_daemon_snapshots(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.save({"engine": _payload(7), "serve": {"ticks": 3}})
        [entry] = mgr.inspect()
        assert entry["valid"] is True
        assert entry["progress"]["batches_done"] == 7


class TestOlderSchemas:
    """The ``snap-<seq>.json`` documents of schemas 4 and older stay
    visible: a load refuses them in place instead of starting over."""

    def test_listed_among_the_generations(self, tmp_path):
        shutil.copy(SCHEMA4, tmp_path / "snap-00000001.json")
        newest = CheckpointManager(tmp_path).save(_payload(2))
        assert [p.name for p in CheckpointManager(tmp_path).generations()] == [
            "snap-00000001.json",
            newest.name,
        ]

    def test_refused_in_place_below_a_corrupt_generation(self, tmp_path):
        shutil.copy(SCHEMA4, tmp_path / "snap-00000001.json")
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(2)).write_text("{ torn")
        with pytest.raises(SnapshotSchemaError, match=REFUSED):
            mgr.load_latest()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "snap-00000001.json",
            "snap-00000002.corrupt",
        ]

    def test_a_newer_valid_generation_is_loaded(self, tmp_path):
        shutil.copy(SCHEMA4, tmp_path / "snap-00000001.json")
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(2))
        assert mgr.load_latest().payload["progress"]["batches_done"] == 2

    def test_inspect_reports_it_invalid(self, tmp_path):
        shutil.copy(SCHEMA4, tmp_path / "snap-00000001.json")
        [entry] = CheckpointManager(tmp_path).inspect()
        assert entry["valid"] is False
        assert "schema 4" in entry["error"] and f"schema {STATE_SCHEMA_VERSION}" in entry["error"]
