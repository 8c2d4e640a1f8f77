"""CheckpointManager: rotation, corruption fallback, inspection."""

from __future__ import annotations

import json

import pytest

from repro.state import CheckpointManager


def _payload(n: int) -> dict:
    return {"progress": {"batches_done": n, "now_ns": float(n)}}


class TestRotation:
    def test_keeps_only_newest_generations(self, tmp_path):
        mgr = CheckpointManager(tmp_path, keep=3)
        for n in range(5):
            mgr.save(_payload(n))
        names = [p.name for p in mgr.generations()]
        assert names == [
            "snap-00000003.json",
            "snap-00000004.json",
            "snap-00000005.json",
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
        mgr = CheckpointManager(tmp_path)
        mgr.save(_payload(1))
        newest = mgr.save(_payload(2))
        doc = json.loads(newest.read_text())
        doc["payload"]["progress"]["batches_done"] = 99  # bit-rot
        newest.write_text(json.dumps(doc), encoding="utf-8")
        loaded = mgr.load_latest()
        assert loaded is not None
        assert loaded.payload["progress"]["batches_done"] == 1

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
        assert newest.name == "snap-00000002.json"


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
