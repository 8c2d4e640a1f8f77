#!/usr/bin/env python3
"""Quickstart: compare FreqTier against every baseline on one workload.

Runs the paper's headline experiment at small scale -- the CacheLib
CDN workload with a 1:32 local:CXL capacity ratio (6% of the footprint
in local DRAM) -- for FreqTier, AutoNUMA, TPP, HeMem and the all-local
upper bound, then prints a Table-II-style comparison.

Usage:
    python examples/quickstart.py
"""

from repro import compare_policies, paper
from repro.analysis.tables import format_comparison_table


def main() -> None:
    # The workload: the bench-scale cachebench-style CDN trace, a
    # 64 "simulated GB" cache (see DESIGN.md scaling convention).
    workload = paper.workloads(1)["cdn"]

    # The machine: local DRAM sized to 6% of the footprint, CXL 32x
    # larger -- the paper's 1:32 configuration (16 GB : 512 GB).
    config = paper.config("cachelib", "1:32", max_batches=300, seed=1)

    print("Running 5 tiering systems on CacheLib CDN @ 1:32 ...")
    # FreqTier, AutoNUMA, TPP and HeMem, plus the all-local upper bound.
    results = compare_policies(workload, paper.policies(1), config)

    print()
    print(format_comparison_table(results))
    print()
    ft = results["FreqTier"]
    print(
        f"FreqTier: hit ratio {ft.steady_hit_ratio:.1%}, "
        f"{ft.pages_migrated} pages migrated, "
        f"metadata {ft.policy_stats['metadata_bytes'] / 1024:.0f} KB"
    )
    an = results["AutoNUMA"]
    print(
        f"AutoNUMA: hit ratio {an.steady_hit_ratio:.1%}, "
        f"{an.pages_migrated} pages migrated "
        f"({an.pages_migrated / max(ft.pages_migrated, 1):.0f}x FreqTier's traffic)"
    )


if __name__ == "__main__":
    main()
