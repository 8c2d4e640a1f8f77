"""JSON-safe encoding of live simulator state.

Snapshot payloads are nested dicts assembled from ``state_dict()``
methods all over the simulator.  Most values are already plain JSON
scalars (numpy RNG bit-generator states, counters, cursors), but two
kinds are not:

- **numpy arrays** (page placements, CBF counter stores, per-page
  timestamps) -- encoded as a marker dict carrying base64 raw bytes,
  dtype and shape, so the round trip is *bit-exact* (no float
  stringification, no precision loss);
- **numpy scalars** -- collapsed to the equivalent Python scalar.

Tuples become lists (JSON has no tuple); ``state_dict()`` producers
must accept lists back in ``load_state()``.

Most components do not hand-write that pair: they subclass
:class:`Stateful` and name their mutable attributes in
``_state_fields``, and one capture/restore rule does the rest.
"""

from __future__ import annotations

import base64
import enum
from typing import Any, ClassVar

import numpy as np

#: Marker key identifying an encoded ndarray.  The key is not a valid
#: Python identifier on purpose, so no state dict can collide with it.
NDARRAY_KEY = "__ndarray__"

_NDARRAY_FIELDS = frozenset({NDARRAY_KEY, "dtype", "shape"})


def encode_state(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable values.

    Raises TypeError for anything that cannot round-trip (sets,
    arbitrary objects, non-string dict keys): state dicts must be
    explicit about their representation rather than rely on lossy
    coercion.
    """
    if isinstance(obj, np.ndarray):
        data = np.ascontiguousarray(obj)
        return {
            NDARRAY_KEY: base64.b64encode(data.tobytes()).decode("ascii"),
            "dtype": str(data.dtype),
            "shape": list(data.shape),
        }
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"state dict keys must be str, got {key!r} "
                    f"({type(key).__name__}); serialize as a list of pairs"
                )
            out[key] = encode_state(value)
        return out
    if isinstance(obj, (list, tuple)):
        return [encode_state(item) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} into snapshot state")


def decode_state(obj: Any) -> Any:
    """Inverse of :func:`encode_state` (ndarray markers come back as
    writable arrays)."""
    if isinstance(obj, dict):
        if set(obj) == _NDARRAY_FIELDS:
            raw = base64.b64decode(obj[NDARRAY_KEY])
            arr = np.frombuffer(raw, dtype=np.dtype(obj["dtype"]))
            return arr.reshape(obj["shape"]).copy()
        return {key: decode_state(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_state(item) for item in obj]
    return obj


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """The full bit-generator state of ``rng`` (JSON-safe as-is)."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a state captured by :func:`rng_state`."""
    rng.bit_generator.state = state


class Stateful:
    """Checkpointing by declaration: ``_state_fields`` names the state.

    Each entry is an attribute name; its state-dict key is the name
    without its leading underscore.  A subclass extends its parent's
    tuple (``_state_fields = Parent._state_fields + ("_extra",)``), so
    keys appear parent-first.  Capture and restore follow one rule for
    every component (see :func:`capture` and :func:`restore`).
    Anything a component randomizes or accumulates must be listed, or
    a resumed run silently diverges from an uninterrupted one.
    """

    _state_fields: ClassVar[tuple[str, ...]] = ()

    def state_dict(self) -> dict[str, Any]:
        """The declared fields, captured (arrays copied)."""
        return {
            name.removeprefix("_"): capture(getattr(self, name))
            for name in self._state_fields
        }

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore every declared field (a missing key raises KeyError)."""
        for name in self._state_fields:
            key = name.removeprefix("_")
            setattr(self, name, restore(getattr(self, name), state[key], key))


#: Exact types :func:`capture` returns as they are, checked first:
#: serving captures a stream cursor with every pull.
_SCALARS = frozenset({type(None), bool, int, float, str})


def capture(value: Any) -> Any:
    """One field's state: ndarrays copied, a generator's bit-generator
    state, an enum's value, a sub-component's ``state_dict()``, lists
    and dicts recursively, anything else as it is."""
    if type(value) in _SCALARS:
        return value
    if isinstance(value, np.random.Generator):
        return rng_state(value)
    if isinstance(value, dict):
        return {k: capture(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, enum.Enum):
        return value.value
    if hasattr(value, "state_dict"):
        return value.state_dict()
    if isinstance(value, (list, tuple)):
        return [capture(item) for item in value]
    return value


def restore(current: Any, saved: Any, key: str) -> Any:
    """The value that replaces ``current`` when restoring ``saved``.

    ``saved`` is cast back to the type of ``current``: an array to its
    dtype (its shape must match, else ValueError naming ``key``), an
    enum to its class, a scalar to its type.  Generators and
    sub-components are restored in place, and so is a dict of
    sub-components, key by key (its keys must match).  Other lists and
    dicts, and ``None`` on either side, take the saved value.  Nothing
    returned aliases ``saved``.
    """
    if (
        isinstance(current, dict)
        and current
        and all(hasattr(value, "load_state") for value in current.values())
    ):
        if saved.keys() != current.keys():
            raise ValueError(
                f"{key}: keys {sorted(saved)} != expected {sorted(current)}"
            )
        for name, component in current.items():
            component.load_state(saved[name])
        return current
    if current is None or saved is None or isinstance(current, (list, dict)):
        return capture(saved)
    if isinstance(current, np.ndarray):
        array = np.array(saved, dtype=current.dtype)
        if array.shape != current.shape:
            raise ValueError(
                f"{key}: shape {array.shape} != expected {current.shape}"
            )
        return array
    if isinstance(current, np.random.Generator):
        set_rng_state(current, saved)
        return current
    if isinstance(current, enum.Enum):
        return type(current)(saved)
    if hasattr(current, "load_state"):
        current.load_state(saved)
        return current
    return type(current)(saved)
