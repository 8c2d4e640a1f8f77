"""Snapshot codec, file form and integrity envelope."""

from __future__ import annotations

import json
import pathlib
import shutil

import numpy as np
import pytest

from repro.state import (
    STATE_SCHEMA_VERSION,
    CheckpointManager,
    Snapshot,
    SnapshotError,
    SnapshotSchemaError,
    rng_state,
    set_rng_state,
)
from repro.state import snapshot as snapshot_mod
from repro.state.codec import COLUMN_KEY, to_tree

from tests.state.conftest import assert_same_state, snapshot_round_trip

SCHEMA4 = pathlib.Path(__file__).parent / "data" / "schema4" / "snap-00000001.json"
#: How a schema-4 generation is refused.
REFUSED = f"schema 4.*only schema {STATE_SCHEMA_VERSION}"


def _write(path, payload) -> bytes:
    with open(path, "wb") as fh:
        Snapshot.write(fh, payload)
    return path.read_bytes()


def _header(data: bytes) -> dict:
    return json.loads(data[16 : 16 + int.from_bytes(data[8:16], "little")])


class TestCodec:
    @pytest.mark.parametrize(
        "dtype", ["int8", "int64", "uint16", "float32", "float64", "bool"]
    )
    def test_ndarray_round_trip_is_bit_exact(self, dtype):
        rng = np.random.default_rng(1)
        arr = (rng.random((7, 3)) * 100).astype(dtype)
        back = snapshot_round_trip(arr)
        assert_same_state(back, arr)
        # Restored arrays must be writable (they are restored *into*
        # live state, not read-only views of the file).
        back[0, 0] = back[0, 0]

    def test_nan_and_inf_survive(self):
        arr = np.array([np.nan, np.inf, -np.inf, 0.1, -0.0])
        assert_same_state(snapshot_round_trip(arr), arr)

    def test_non_contiguous_and_empty_arrays(self):
        payload = {"strided": np.arange(10)[::3], "empty": np.zeros((0, 4))}
        back = snapshot_round_trip(payload)
        assert back["strided"].tolist() == [0, 3, 6, 9]
        assert back["empty"].shape == (0, 4)

    def test_nested_structures(self):
        payload = {
            "a": [1, 2.5, None, True, "x"],
            "b": {"inner": np.arange(4, dtype=np.int32)},
            "scalar": np.int64(7),
            "tup": (1, 2),
        }
        back = snapshot_round_trip(payload)
        assert back["a"] == [1, 2.5, None, True, "x"]
        assert_same_state(back["b"]["inner"], np.arange(4, dtype=np.int32))
        assert type(back["scalar"]) is int and back["scalar"] == 7
        assert back["tup"] == [1, 2]  # tuples become lists by contract

    def test_arrays_become_column_references(self):
        arrays: list = []
        tree = to_tree({"x": np.zeros((2, 3)), "y": [np.ones(1)]}, arrays)
        assert tree == {
            "x": {COLUMN_KEY: 0, "shape": [2, 3]},
            "y": [{COLUMN_KEY: 1, "shape": [1]}],
        }
        assert len(arrays) == 2

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            to_tree({1: "x"}, [])

    def test_unencodable_objects_rejected(self):
        for bad in ({1, 2}, object(), np.array([None])):
            with pytest.raises(TypeError, match="cannot encode"):
                to_tree({"bad": bad}, [])

    def test_rng_state_round_trip_freezes_draws(self):
        rng1 = np.random.default_rng(9)
        rng1.random(13)  # advance mid-stream
        state = snapshot_round_trip(rng_state(rng1))
        rng2 = np.random.default_rng(0)
        set_rng_state(rng2, state)
        assert np.array_equal(rng1.random(8), rng2.random(8))


class TestSnapshot:
    def test_create_verify_decode(self, tmp_path):
        data = _write(tmp_path / "s.ckpt", {"x": np.arange(5), "n": 3})
        snap = Snapshot.read(tmp_path / "s.ckpt")
        assert snap.schema == STATE_SCHEMA_VERSION
        assert snap.digest == _header(data)["digest"]
        assert len(snap.digest) == 64
        assert_same_state(snap.payload, {"x": np.arange(5), "n": 3})

    def test_header_carries_scalars_and_aligned_columns(self, tmp_path):
        data = _write(tmp_path / "s.ckpt", {"x": np.arange(5, dtype=np.int16), "n": 3})
        header = _header(data)
        assert data[:8] == b"RPSNAP\0\0"
        assert header["schema"] == STATE_SCHEMA_VERSION
        assert header["payload"] == {"x": {COLUMN_KEY: 0, "shape": [5]}, "n": 3}
        assert header["columns"] == {"0": ["<i2", 5, 0]}
        base = -(-(16 + int.from_bytes(data[8:16], "little")) // 64) * 64
        assert data[base : base + 10] == np.arange(5, dtype=np.int16).tobytes()

    def test_json_document_round_trip(self, tmp_path):
        # Read, then written again: the JSON header and the columns come
        # back byte for byte.
        payload = {"v": [1, 2, 3], "x": np.arange(6, dtype=np.uint16).reshape(2, 3)}
        data = _write(tmp_path / "a.ckpt", payload)
        clone = Snapshot.read(tmp_path / "a.ckpt")
        assert _write(tmp_path / "b.ckpt", clone.payload) == data
        assert Snapshot.read(tmp_path / "b.ckpt").digest == clone.digest

    def test_same_payload_writes_the_same_bytes(self, tmp_path):
        payload = {"x": np.linspace(0, 1, 9), "rng": rng_state(np.random.default_rng(2))}
        assert _write(tmp_path / "a.ckpt", payload) == _write(tmp_path / "b.ckpt", payload)

    def test_tampered_payload_fails_digest(self, tmp_path):
        # One flipped bit in a header scalar: 12345 -> 12344.
        self._assert_flip_fails_digest(tmp_path, lambda data: data.index(b"12345") + 4)

    def test_flipped_column_byte_fails_the_digest(self, tmp_path):
        self._assert_flip_fails_digest(tmp_path, lambda data: len(data) - 64 * 8 + 100)

    @staticmethod
    def _assert_flip_fails_digest(tmp_path, index_of) -> None:
        path = tmp_path / "s.ckpt"
        data = bytearray(_write(path, {"count": 12345, "x": np.arange(64)}))
        data[index_of(data)] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="digest mismatch") as info:
            Snapshot.read(path)
        assert not isinstance(info.value, SnapshotSchemaError)

    def test_flipped_schema_is_corruption_not_another_schema(self, tmp_path):
        path = tmp_path / "s.ckpt"
        data = _write(path, {"v": 1})
        old = f'"schema": {STATE_SCHEMA_VERSION}'.encode()
        path.write_bytes(data.replace(old, f'"schema": {STATE_SCHEMA_VERSION - 1}'.encode(), 1))
        with pytest.raises(SnapshotError, match="digest mismatch") as info:
            Snapshot.read(path)
        assert not isinstance(info.value, SnapshotSchemaError)

    @pytest.mark.parametrize(
        "cut", [0, 5, 12, 40, -8], ids=["empty", "magic", "length", "header", "column"]
    )
    def test_truncated_file_is_unreadable(self, tmp_path, cut):
        path = tmp_path / "s.ckpt"
        data = _write(path, {"x": np.arange(64)})
        path.write_bytes(data[:cut])
        with pytest.raises(SnapshotError) as info:
            Snapshot.read(path)
        assert not isinstance(info.value, SnapshotSchemaError)

    def test_wrong_schema_rejected(self, tmp_path, monkeypatch):
        # An intact snapshot of a newer schema.
        path = tmp_path / "s.ckpt"
        monkeypatch.setattr(snapshot_mod, "STATE_SCHEMA_VERSION", STATE_SCHEMA_VERSION + 1)
        _write(path, {"v": 1})
        monkeypatch.undo()
        with pytest.raises(
            SnapshotSchemaError,
            match=f"schema {STATE_SCHEMA_VERSION + 1}.*only schema {STATE_SCHEMA_VERSION}",
        ):
            Snapshot.read(path)

    def test_schema_2_document_refused(self, tmp_path):
        # Schema 2 stored the metric history as one dict per batch.
        self._assert_json_document_refused(tmp_path, 2)

    def test_schema_3_document_refused(self, tmp_path):
        # Schema 3 carried no workload stream position.
        self._assert_json_document_refused(tmp_path, 3)

    @staticmethod
    def _assert_json_document_refused(tmp_path, schema: int) -> None:
        """Schemas 4 and older wrote one JSON document per generation;
        it is refused, and a load leaves it in place."""
        path = tmp_path / "snap-00000001.json"
        path.write_text(json.dumps({"schema": schema, "digest": "x", "payload": {}}))
        match = f"schema {schema}.*only schema {STATE_SCHEMA_VERSION}"
        with pytest.raises(SnapshotSchemaError, match=match):
            Snapshot.read(path)
        with pytest.raises(SnapshotSchemaError, match=match):
            CheckpointManager(tmp_path).load_latest()
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    @pytest.mark.parametrize(
        "doc",
        [
            "not a dict",
            {},
            {"schema": "1", "digest": "x", "payload": {}},
            {"schema": STATE_SCHEMA_VERSION, "payload": {}},
        ],
    )
    def test_malformed_documents_rejected(self, tmp_path, doc):
        path = tmp_path / "snap-00000001.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="unreadable") as info:
            Snapshot.read(path)
        assert not isinstance(info.value, SnapshotSchemaError)


class TestOlderSchemas:
    """Schemas 4 and older wrote one JSON document per generation."""

    def test_committed_schema_4_document_refused(self):
        with pytest.raises(SnapshotSchemaError, match=REFUSED):
            Snapshot.read(SCHEMA4)

    def test_load_latest_refuses_and_keeps_the_generation(self, tmp_path):
        shutil.copy(SCHEMA4, tmp_path / SCHEMA4.name)
        with pytest.raises(SnapshotSchemaError, match=REFUSED):
            CheckpointManager(tmp_path).load_latest()
        assert sorted(p.name for p in tmp_path.iterdir()) == [SCHEMA4.name]
