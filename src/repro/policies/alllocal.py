"""All-local baseline: everything fits in local DRAM (paper Section VI-B).

Represents the performance upper bound: every access is serviced at
local-DRAM latency and no tiering work happens.  Use with a machine
whose local capacity covers the workload footprint (the
:func:`repro.core.runner` facade builds that machine automatically).
"""

from __future__ import annotations

from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch


class AllLocal(TieringPolicy):
    """No-op policy for the all-in-local-DRAM upper bound."""

    name = "AllLocal"

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        return 0.0
