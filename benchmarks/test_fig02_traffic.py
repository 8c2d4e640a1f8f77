"""Figure 2: memory traffic volume breakdown.

Paper: on CacheLib with 16 GB local DRAM, page migrations are on
average 10.4% (AutoNUMA) and 43.5% (TPP) of total memory traffic,
while FreqTier reduces migration traffic by ~4.2x versus prior works
(Section III).

Regenerates the breakdown (local access / CXL access / migration
shares) for FreqTier, AutoNUMA and TPP on both CacheLib workloads at
the 16 GB-equivalent and 32 GB-equivalent local sizes.
"""

import pytest

from repro import paper
from repro.analysis.tables import format_rows

RATIOS = paper.ratios("cachelib")[:2]  # 16 GB / 32 GB equivalents
SYSTEMS = ("FreqTier", "AutoNUMA", "TPP")


@pytest.fixture(scope="module")
def grids():
    return {
        name: paper.run_grid(paper.workloads(1)[name], RATIOS, seed=1)
        for name in ("cdn", "social")
    }


def test_fig02_traffic_breakdown(benchmark, grids):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for workload, grid in grids.items():
        for label, __ in RATIOS:
            for name in SYSTEMS:
                res = grid[label][name]
                b = res.traffic_breakdown
                rows.append(
                    [
                        workload,
                        label,
                        name,
                        f"{b['local']:.1%}",
                        f"{b['cxl']:.1%}",
                        f"{b['migration']:.1%}",
                    ]
                )
    print("\n=== Fig. 2: traffic breakdown (local / CXL / migration) ===")
    print(
        format_rows(
            ["workload", "config", "system", "local", "cxl", "migration"], rows
        )
    )

    for workload, grid in grids.items():
        for label, __ in RATIOS:
            results = grid[label]
            ft = results["FreqTier"].migration_bytes
            an = results["AutoNUMA"].migration_bytes
            tpp = results["TPP"].migration_bytes
            # TPP migrates the most (paper: up to 43.5% of traffic).
            assert tpp > an, (workload, label)
            # FreqTier's migration traffic is >= 4x below the prior-work
            # average (paper: 4.2x average reduction).
            assert (an + tpp) / 2 > 4 * ft, (workload, label)

    # Migration share shrinks only modestly with more DRAM for the
    # recency systems (paper: "remains significant" at 32 GB).
    for workload, grid in grids.items():
        share_16 = grid["1:32"]["TPP"].traffic_breakdown["migration"]
        share_32 = grid["1:16"]["TPP"].traffic_breakdown["migration"]
        assert share_32 > 0.05, workload
        assert share_16 > 0.05, workload
