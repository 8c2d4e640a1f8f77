#!/usr/bin/env python3
"""Extending the framework: write and evaluate your own tiering policy.

The policy interface is three methods; this example implements a
simple "sampled-LFU" policy in ~40 lines -- PEBS sampling (through the
``PEBSPolicy`` base) into an exact counter table with periodic top-k
placement -- and benchmarks it against FreqTier on the same machine
and trace, showing how research iterations slot into the harness.

Usage:
    python examples/custom_policy.py
"""

import numpy as np

from repro import (
    ExperimentConfig,
    FreqTier,
    SyntheticZipfWorkload,
    compare_policies,
)
from repro.analysis.tables import format_comparison_table
from repro.cbf.exact import ExactFrequencyTracker
from repro.memsim.pagetable import CXL_TIER, LOCAL_TIER
from repro.policies.base import PEBSPolicy


class SampledLFU(PEBSPolicy):
    """Every N accesses, place the top-k sampled pages in local DRAM.

    Deliberately naive: exact counting (high metadata cost), periodic
    wholesale re-placement (bursty migration traffic), no adaptivity.
    A good foil for FreqTier's incremental design.
    """

    name = "SampledLFU"
    # Everything the policy accumulates or randomizes is checkpointed,
    # so a killed-and-resumed run matches an uninterrupted one.
    _state_fields = PEBSPolicy._state_fields + (
        "tracker",
        "pebs",
        "_since_replace",
    )

    def __init__(self, replace_interval_accesses: int = 400_000, seed: int = 0):
        super().__init__()
        self.replace_interval = int(replace_interval_accesses)
        self.seed = int(seed)
        self.tracker = ExactFrequencyTracker(bytes_per_entry=16)
        self._since_replace = 0

    def attach(self, machine) -> None:
        super().attach(machine)
        self._attach_pebs(base_period=64, seed=self.seed)

    def on_batch(self, batch, now_ns: float, counts) -> float:
        # Sampling is charged per drained sample below, not per sample
        # taken (the ns that observe() returns).
        self.pebs.observe(batch)
        overhead = 0.0
        self._since_replace += batch.num_accesses
        if self._since_replace >= self.replace_interval:
            self._since_replace = 0
            page_ids, drained = self._drain_samples(now_ns)
            if drained:
                self.tracker.increment(page_ids)
                overhead += drained * 100.0
            overhead += self._replace_top_k()
            self.tracker.age()
        self.stats.overhead_ns += overhead
        return overhead

    def _replace_top_k(self) -> float:
        machine = self.machine
        entries = sorted(
            self.tracker.items(), key=lambda kv: kv[1], reverse=True
        )
        if not entries:
            return 0.0
        k = machine.config.local_capacity_pages
        want_local = np.array([page for page, __ in entries[:k]], dtype=np.int64)
        placement = machine.placement_of(want_local)
        to_promote = want_local[placement == CXL_TIER]
        # Demote whatever occupies local but is outside the top-k.
        local_pages = machine.page_table.pages_in_tier(LOCAL_TIER)
        stale = np.setdiff1d(local_pages, want_local, assume_unique=False)
        self._demote_pages(stale[: len(to_promote) + 8])
        self._promote_pages(to_promote)
        return 10_000.0  # two syscalls + ranking pass


def main() -> None:
    def workload():
        return SyntheticZipfWorkload(
            num_pages=16_384, alpha=1.2, accesses_per_batch=40_000, seed=4
        )

    config = ExperimentConfig(
        local_fraction=0.08, ratio_label="1:16", max_batches=250, seed=4
    )
    print("Benchmarking a custom policy against FreqTier ...")
    results = compare_policies(
        workload,
        {
            "FreqTier": lambda: FreqTier(seed=4),
            "SampledLFU": lambda: SampledLFU(seed=4),
        },
        config,
    )
    print()
    print(format_comparison_table(results))
    lfu = results["SampledLFU"]
    ft = results["FreqTier"]
    print(
        f"\nSampledLFU migrated {lfu.pages_migrated} pages vs FreqTier's "
        f"{ft.pages_migrated}: wholesale replacement is bursty, which is "
        f"exactly the traffic FreqTier's threshold/watermark design avoids."
    )


if __name__ == "__main__":
    main()
