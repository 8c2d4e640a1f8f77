"""JSON-safe encoding of live simulator state.

Snapshot payloads are nested dicts assembled from ``state_dict()``
methods all over the simulator.  Most values are already plain JSON
scalars (numpy RNG bit-generator states, counters, cursors), but two
kinds are not:

- **numpy arrays** (page placements, CBF counter stores, per-page
  timestamps) -- stored as raw columns of the snapshot file, each
  replaced in the payload tree by a column reference, so the round
  trip is *bit-exact* (no float stringification, no precision loss);
- **numpy scalars** -- collapsed to the equivalent Python scalar.

Tuples become lists (JSON has no tuple); ``state_dict()`` producers
must accept lists back in ``load_state()``.

Most components do not hand-write that pair: they subclass
:class:`Stateful` and name their mutable attributes in
``_state_fields``, and one capture/restore rule does the rest.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from typing import Any, ClassVar

import numpy as np

#: Key of a column reference, the dict that stands for an ndarray in a
#: payload tree.  It is not a valid Python identifier on purpose, so no
#: state dict can collide with it.
COLUMN_KEY = "__column__"

_REFERENCE_FIELDS = frozenset({COLUMN_KEY, "shape"})


def to_tree(obj: Any, arrays: list[np.ndarray]) -> Any:
    """``obj`` as a JSON-serializable tree: each ndarray is appended to
    ``arrays`` and replaced by ``{COLUMN_KEY: index, "shape": shape}``.

    Raises TypeError for anything that cannot round-trip (sets,
    arbitrary objects, object arrays, non-string dict keys): state dicts
    must be explicit about their representation rather than rely on
    lossy coercion.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise TypeError("cannot encode an object array into snapshot state")
        arrays.append(obj)
        return {COLUMN_KEY: len(arrays) - 1, "shape": list(obj.shape)}
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
            out[key] = to_tree(value, arrays)
        return out
    if isinstance(obj, (list, tuple)):
        return [to_tree(item, arrays) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} into snapshot state")


def from_tree(tree: Any, columns: Sequence[np.ndarray]) -> Any:
    """Inverse of :func:`to_tree`: each column reference becomes a
    writable copy of its column, in its shape."""
    if isinstance(tree, dict):
        if tree.keys() == _REFERENCE_FIELDS:
            return columns[tree[COLUMN_KEY]].reshape(tree["shape"]).copy()
        return {key: from_tree(value, columns) for key, value in tree.items()}
    if isinstance(tree, list):
        return [from_tree(item, columns) for item in tree]
    return tree


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
