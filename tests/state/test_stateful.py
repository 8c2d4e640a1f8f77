"""The one capture/restore rule behind ``Stateful.state_dict``/``load_state``."""

from __future__ import annotations

import enum
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.state import Stateful

from tests.state.conftest import snapshot_round_trip


class _Mode(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"


class _Leaf(Stateful):
    _state_fields = ("count",)

    def __init__(self):
        self.count = 0


class _Component(Stateful):
    _state_fields = ("_array", "_rng", "mode", "leaf", "pending", "extra", "ratio")

    def __init__(self, seed: int = 0):
        self._array = np.zeros(4, dtype=np.int16)
        self._rng = np.random.default_rng(seed)
        self.mode = _Mode.IDLE
        self.leaf = _Leaf()
        self.pending = [np.arange(3)]
        self.extra = {"hits": 1.5}
        self.ratio: float | None = 0.25


class _Grown(_Component):
    _state_fields = _Component._state_fields + ("_tail",)

    def __init__(self, seed: int = 0):
        super().__init__(seed)
        self._tail = 7


def _keys_drop_leading_underscore():
    assert list(_Grown().state_dict()) == [
        "array", "rng", "mode", "leaf", "pending", "extra", "ratio", "tail",
    ]


def _no_aliasing_on_capture():
    src = _Component()
    state = src.state_dict()
    src._array[0] = 9
    src.pending[0][0] = 9
    src.extra["hits"] = 0.0
    src.leaf.count = 3
    assert state["array"][0] == 0
    assert state["pending"][0][0] == 0
    assert state["extra"] == {"hits": 1.5}
    assert state["leaf"] == {"count": 0}


def _no_aliasing_on_restore():
    state = _Component().state_dict()
    dst = _Component()
    dst.load_state(state)
    state["array"][0] = 9
    state["pending"][0][0] = 9
    state["extra"]["hits"] = 0.0
    assert dst._array[0] == 0
    assert dst.pending[0][0] == 0
    assert dst.extra == {"hits": 1.5}


def _attached_dtype_kept():
    state = _Component().state_dict()
    state["array"] = np.array([1, 2, 3, 4], dtype=np.int64)
    dst = _Component()
    dst.load_state(snapshot_round_trip(state))
    assert dst._array.dtype == np.int16
    assert dst._array.tolist() == [1, 2, 3, 4]


def _shape_mismatch_names_key():
    state = _Component().state_dict()
    state["array"] = np.zeros(5, dtype=np.int16)
    with pytest.raises(ValueError, match="array"):
        _Component().load_state(state)


def _generator_draws_stay_frozen():
    src = _Component(seed=3)
    src._rng.random(5)
    state = snapshot_round_trip(src.state_dict())
    expected = src._rng.random(4)
    src._rng.random(100)  # the captured state must not move with src
    dst = _Component(seed=99)
    rng = dst._rng
    dst.load_state(state)
    assert dst._rng is rng  # restored in place
    assert np.array_equal(dst._rng.random(4), expected)


def _enum_and_none_round_trip():
    src = _Component()
    src.mode = _Mode.BUSY
    src.ratio = None
    state = snapshot_round_trip(src.state_dict())
    assert state["mode"] == "busy"
    dst = _Component()
    dst.load_state(state)
    assert dst.mode is _Mode.BUSY
    assert dst.ratio is None
    src.ratio = 0.5
    dst.load_state(snapshot_round_trip(src.state_dict()))
    assert dst.ratio == 0.5 and type(dst.ratio) is float


def _missing_key_raises():
    state = _Grown().state_dict()
    del state["tail"]
    with pytest.raises(KeyError, match="tail"):
        _Grown().load_state(state)


class _Bundle(Stateful):
    _state_fields = ("parts",)

    def __init__(self):
        self.parts = {"a": _Leaf(), "b": _Leaf()}


def _component_dict_restored_in_place():
    src = _Bundle()
    src.parts["b"].count = 4
    dst = _Bundle()
    parts = dst.parts
    dst.load_state(snapshot_round_trip(src.state_dict()))
    assert dst.parts is parts and isinstance(parts["b"], _Leaf)
    assert parts["b"].count == 4
    state = src.state_dict()
    del state["parts"]["b"]
    with pytest.raises(ValueError, match="parts"):
        _Bundle().load_state(state)


@pytest.mark.parametrize(
    "check",
    [
        _keys_drop_leading_underscore,
        _no_aliasing_on_capture,
        _no_aliasing_on_restore,
        _attached_dtype_kept,
        _shape_mismatch_names_key,
        _generator_draws_stay_frozen,
        _enum_and_none_round_trip,
        _missing_key_raises,
        _component_dict_restored_in_place,
    ],
    ids=lambda check: check.__name__.lstrip("_"),
)
def test_stateful_rule(check):
    check()


#: Classes that write ``state_dict``/``load_state`` by hand, each with
#: why its state is not a list of declared fields.
HAND_WRITTEN = {
    "repro.core.metrics.MetricsCollector": "growable columns plus a label vocabulary",
    "repro.obs.registry.HistogramRegistry": "int-keyed buckets",
    "repro.policies.base.MigrationRetryQueue": "int-keyed entries and a set",
    "repro.serve.queues.TenantQueue": "its entries are deliberately not captured",
    "repro.cbf.exact.ExactFrequencyTracker": "its array grows with the largest key",
}


def _classes_defining_state_dict() -> set[str]:
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == info.name
                and cls is not Stateful
                and "state_dict" in vars(cls)
            ):
                found.add(f"{cls.__module__}.{cls.__qualname__}")
    return found


def test_only_the_allow_listed_formats_are_hand_written():
    assert _classes_defining_state_dict() == set(HAND_WRITTEN)
