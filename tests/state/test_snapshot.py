"""Snapshot codec and integrity envelope."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.state import (
    STATE_SCHEMA_VERSION,
    CheckpointManager,
    Snapshot,
    SnapshotError,
    decode_state,
    encode_state,
    payload_digest,
    rng_state,
    set_rng_state,
)


class TestCodec:
    @pytest.mark.parametrize(
        "dtype", ["int8", "int64", "uint16", "float32", "float64", "bool"]
    )
    def test_ndarray_round_trip_is_bit_exact(self, dtype):
        rng = np.random.default_rng(1)
        arr = (rng.random((7, 3)) * 100).astype(dtype)
        back = decode_state(json.loads(json.dumps(encode_state(arr))))
        assert back.dtype == arr.dtype
        assert back.shape == arr.shape
        assert np.array_equal(back, arr)
        # Restored arrays must be writable (they are restored *into*
        # live state, not read-only views of the decode buffer).
        back[0, 0] = back[0, 0]

    def test_nan_and_inf_survive(self):
        arr = np.array([np.nan, np.inf, -np.inf, 0.1])
        back = decode_state(json.loads(json.dumps(encode_state(arr))))
        assert np.array_equal(back, arr, equal_nan=True)

    def test_nested_structures(self):
        payload = {
            "a": [1, 2.5, None, True, "x"],
            "b": {"inner": np.arange(4, dtype=np.int32)},
            "scalar": np.int64(7),
            "tup": (1, 2),
        }
        back = decode_state(json.loads(json.dumps(encode_state(payload))))
        assert back["a"] == [1, 2.5, None, True, "x"]
        assert np.array_equal(back["b"]["inner"], np.arange(4))
        assert back["scalar"] == 7
        assert back["tup"] == [1, 2]  # tuples become lists by contract

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            encode_state({1: "x"})

    def test_unencodable_objects_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_state({"bad": {1, 2}})

    def test_rng_state_round_trip_freezes_draws(self):
        rng1 = np.random.default_rng(9)
        rng1.random(13)  # advance mid-stream
        state = json.loads(json.dumps(encode_state(rng_state(rng1))))
        rng2 = np.random.default_rng(0)
        set_rng_state(rng2, decode_state(state))
        assert np.array_equal(rng1.random(8), rng2.random(8))


class TestSnapshot:
    def test_create_verify_decode(self):
        payload = {"x": np.arange(5), "n": 3}
        snap = Snapshot.create(payload)
        assert snap.schema == STATE_SCHEMA_VERSION
        snap.verify()
        decoded = snap.decoded()
        assert np.array_equal(decoded["x"], np.arange(5))
        assert decoded["n"] == 3

    def test_json_document_round_trip(self):
        snap = Snapshot.create({"v": [1, 2, 3]})
        doc = json.loads(json.dumps(snap.to_json_dict()))
        clone = Snapshot.from_json_dict(doc)
        clone.verify()
        assert clone.decoded() == {"v": [1, 2, 3]}

    def test_tampered_payload_fails_digest(self):
        snap = Snapshot.create({"v": 1})
        doc = snap.to_json_dict()
        doc["payload"]["v"] = 2
        with pytest.raises(SnapshotError, match="digest mismatch"):
            Snapshot.from_json_dict(doc).verify()

    def test_wrong_schema_rejected(self):
        snap = Snapshot.create({"v": 1})
        doc = snap.to_json_dict()
        doc["schema"] = STATE_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotError, match="schema"):
            Snapshot.from_json_dict(doc).verify()

    def test_schema_2_document_refused(self, tmp_path):
        # Schema 2 stored the metric history as one dict per batch.
        payload = {"engine": {"metrics": {"records": [{"start_ns": 0.0}]}}}
        doc = Snapshot.create(payload).to_json_dict()
        doc["schema"] = 2
        doc["digest"] = payload_digest(doc["payload"])
        with pytest.raises(SnapshotError, match="schema 2"):
            Snapshot.from_json_dict(doc).verify()
        (tmp_path / "snap-00000001.json").write_text(json.dumps(doc))
        assert CheckpointManager(tmp_path).load_latest() is None

    def test_schema_3_document_refused(self, tmp_path):
        # Schema 3 carried no workload stream position: resuming one
        # would have to regenerate the completed batches.
        payload = {"progress": {"batches_done": 10}, "metrics": {}}
        doc = Snapshot.create(payload).to_json_dict()
        doc["schema"] = 3
        doc["digest"] = payload_digest(doc["payload"])
        with pytest.raises(SnapshotError, match="schema 3 != supported 4"):
            Snapshot.from_json_dict(doc).verify()
        (tmp_path / "snap-00000001.json").write_text(json.dumps(doc))
        assert CheckpointManager(tmp_path).load_latest() is None

    @pytest.mark.parametrize(
        "doc",
        [
            "not a dict",
            {},
            {"schema": 1, "digest": 0, "payload": {}},
            {"schema": "1", "digest": "x", "payload": {}},
        ],
    )
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(SnapshotError):
            Snapshot.from_json_dict(doc)

    def test_digest_is_key_order_independent(self):
        assert payload_digest({"a": 1, "b": 2}) == payload_digest(
            {"b": 2, "a": 1}
        )
