"""Helpers for tests that take state through a snapshot file."""

from __future__ import annotations

import math
import os
import tempfile
from typing import Any

import numpy as np

from repro.state import Snapshot


def snapshot_round_trip(payload: Any) -> Any:
    """``payload`` as a snapshot file gives it back."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "snap.ckpt")
        with open(path, "wb") as fh:
            Snapshot.write(fh, payload)
        return Snapshot.read(path).payload


def snapshot_bytes(payload: Any) -> int:
    """The size of ``payload``'s snapshot file."""
    with tempfile.TemporaryFile() as fh:
        return Snapshot.write(fh, payload)


def assert_same_state(actual: Any, expected: Any, where: str = "state") -> None:
    """``actual`` equals ``expected`` exactly: the same types, key order,
    array dtypes and shapes, and bit-identical values."""
    assert type(actual) is type(expected), (where, type(actual), type(expected))
    if isinstance(expected, dict):
        assert list(actual) == list(expected), (where, list(actual), list(expected))
        for key, value in expected.items():
            assert_same_state(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (got, want) in enumerate(zip(actual, expected)):
            assert_same_state(got, want, f"{where}[{i}]")
    elif isinstance(expected, np.ndarray):
        assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape), where
        assert actual.tobytes() == expected.tobytes(), where
    elif isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(actual), where
    else:
        assert actual == expected, where
