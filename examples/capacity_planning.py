#!/usr/bin/env python3
"""Capacity planning: how much local DRAM does a workload really need?

The paper's Section VII-A observation 2: FreqTier often needs 2x (and
on social graph 4x) less local DRAM than AutoNUMA for the same
performance.  This example sweeps the local-DRAM fraction for both
systems on the social-graph workload and prints the resulting
performance curve -- the tool a capacity planner would actually use to
pick a DRAM:CXL ratio.

Usage:
    python examples/capacity_planning.py
"""

from repro import ExperimentConfig, compare_policies, paper
from repro.analysis.tables import format_rows

# A 3% point below the paper's smallest cell, then its three CacheLib
# cells (1:32, 1:16, 1:8).
POINTS = [("1:32", 0.03)] + paper.ratios("cachelib")


def main() -> None:
    workload = paper.workloads(3)["social"]
    policies = paper.policies(3)

    rows = []
    crossover = None
    print("Sweeping local DRAM sizes on CacheLib social graph ...")
    for label, frac in POINTS:
        config = ExperimentConfig(
            local_fraction=frac, ratio_label=label, max_batches=300, seed=3
        )
        results = compare_policies(
            workload,
            {name: policies[name] for name in ("FreqTier", "AutoNUMA")},
            config,
        )
        base = results["AllLocal"]
        ft = results["FreqTier"].relative_to(base)["throughput"]
        an = results["AutoNUMA"].relative_to(base)["throughput"]
        rows.append(
            [
                f"{frac:.0%}",
                f"{ft:.1%}",
                f"{an:.1%}",
                f"{results['FreqTier'].steady_hit_ratio:.1%}",
                f"{results['AutoNUMA'].steady_hit_ratio:.1%}",
            ]
        )
        if crossover is None and ft is not None:
            crossover = (frac, ft)

    print()
    print(
        format_rows(
            [
                "%local",
                "FreqTier thr",
                "AutoNUMA thr",
                "FreqTier hit",
                "AutoNUMA hit",
            ],
            rows,
        )
    )
    print(
        "\nReading the table: find the smallest %local where each system "
        "clears your performance target. FreqTier typically clears 90% of "
        "all-local with a fraction of the DRAM AutoNUMA needs -- that "
        "difference is the paper's DRAM cost-saving claim."
    )


if __name__ == "__main__":
    main()
