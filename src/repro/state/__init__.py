"""Durable checkpoint/restore for crash-survivable experiments.

The state layer turns a live experiment into a versioned, integrity-
checked document and back:

- :mod:`repro.state.codec` -- JSON-safe encoding of numpy arrays, numpy
  scalars and RNG bit-generator states, and :class:`Stateful`, the one
  capture/restore rule components declare their state with;
- :mod:`repro.state.snapshot` -- the :class:`Snapshot` schema (schema
  version + sha256 payload digest);
- :mod:`repro.state.checkpoint` -- :class:`CheckpointManager`: atomic
  rotated generations with corruption quarantine and newest-valid
  fallback;
- :mod:`repro.state.journal` -- :class:`SweepJournal`: append-only
  completed-cell log so interrupted sweeps skip finished cells.

Every stateful simulator component exposes ``state_dict()`` /
``load_state()``.  Most get both from :class:`Stateful` by naming
their mutable attributes in a ``_state_fields`` tuple; the few whose
format is not a field list (int-keyed dicts, sets, column stores)
write the pair by hand.  The engine composes them into one payload (see
``SimulationEngine.capture_state``) and
``run_experiment(..., resume_from=...)`` restores it.  For fixed seeds
a resumed run is bit-identical to an uninterrupted one (see DESIGN.md
"Determinism").
"""

from repro.state.checkpoint import CheckpointManager, LoadedCheckpoint
from repro.state.codec import (
    Stateful,
    decode_state,
    encode_state,
    rng_state,
    set_rng_state,
)
from repro.state.journal import SweepJournal
from repro.state.snapshot import (
    STATE_SCHEMA_VERSION,
    Snapshot,
    SnapshotError,
    payload_digest,
)

__all__ = [
    "STATE_SCHEMA_VERSION",
    "CheckpointManager",
    "LoadedCheckpoint",
    "Snapshot",
    "SnapshotError",
    "Stateful",
    "SweepJournal",
    "decode_state",
    "encode_state",
    "payload_digest",
    "rng_state",
    "set_rng_state",
]
