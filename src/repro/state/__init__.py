"""Durable checkpoint/restore for crash-survivable experiments.

The state layer turns a live experiment into a versioned, integrity-
checked file and back:

- :mod:`repro.state.codec` -- the payload tree (numpy arrays become
  column references, numpy scalars Python scalars), RNG bit-generator
  states, and :class:`Stateful`, the one capture/restore rule
  components declare their state with;
- :mod:`repro.state.colfile` -- the column file: a JSON header, then
  raw 64-byte-aligned columns, memory-mapped on read; trace files use
  it too (:mod:`repro.workloads.recording`);
- :mod:`repro.state.snapshot` -- the :class:`Snapshot` file (schema
  version + sha256 digest over the header and the columns);
- :mod:`repro.state.checkpoint` -- :class:`CheckpointManager`: atomic
  rotated generations with corruption quarantine, newest-valid
  fallback and refusal of other schemas.

Finished grid cells are not state: an executor with a
``checkpoint_root`` keeps them in its result cache
(:class:`repro.core.cache.ResultCache` under ``<root>/results``).

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
from repro.state.codec import Stateful, rng_state, set_rng_state
from repro.state.snapshot import (
    STATE_SCHEMA_VERSION,
    Snapshot,
    SnapshotError,
    SnapshotSchemaError,
)

__all__ = [
    "STATE_SCHEMA_VERSION",
    "CheckpointManager",
    "LoadedCheckpoint",
    "Snapshot",
    "SnapshotError",
    "SnapshotSchemaError",
    "Stateful",
    "rng_state",
    "set_rng_state",
]
