"""Shared helpers for the policy unit tests."""

from __future__ import annotations

import numpy as np

from repro.memsim.pagetable import LOCAL_TIER
from repro.sampling.events import AccessBatch


def drive(machine, policy, pages, now: float = 0.0) -> float:
    """Show ``pages`` to ``policy`` as one batch, the way the engine does.

    The ``(n_local, n_cxl)`` split is read from the placement before
    the policy runs; returns the policy's overhead.
    """
    batch = AccessBatch(page_ids=np.asarray(pages), num_ops=1.0, cpu_ns=0.0)
    tiers = machine.placement_of(batch.page_ids)
    n_local = int(np.count_nonzero(tiers == LOCAL_TIER))
    return policy.on_batch(batch, now, (n_local, batch.num_accesses - n_local))
