"""Static placement baseline: default allocation, no migration.

Pages land wherever the default local-first allocation policy put
them and never move.  This is the tiering lower bound (any policy
should beat it on skewed workloads) and is useful for isolating how
much of a policy's win comes from migration at all.
"""

from __future__ import annotations

from repro.policies.base import TieringPolicy
from repro.sampling.events import AccessBatch


class StaticNoMigration(TieringPolicy):
    """No-op policy over the default first-touch placement."""

    name = "Static"

    def on_batch(
        self,
        batch: AccessBatch,
        now_ns: float,
        counts: tuple[int, int],
    ) -> float:
        return 0.0
