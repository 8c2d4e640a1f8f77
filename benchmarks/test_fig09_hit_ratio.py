"""Figure 9: local-DRAM hit ratio on CacheLib vs local DRAM size.

Paper: with 16 GB of local DRAM FreqTier reaches ~90% hit ratio, on
average 20-21 points above AutoNUMA/TPP; HeMem sits between (accurate
tracking, so close to FreqTier).  The advantage shrinks as local DRAM
grows to 64 GB.
"""

import pytest

from repro import paper
from repro.analysis.tables import format_rows

# 16 / 32 / 64 GB against the 267 GB footprint = 6% / 12% / 24%
# (capacity ratios 1:32 / 1:16 / 1:8).
SIZES = paper.ratios("cachelib")
SIZE_NAMES = {"1:32": "16GB", "1:16": "32GB", "1:8": "64GB"}


@pytest.fixture(scope="module")
def grids():
    return {
        name: paper.run_grid(paper.workloads(1)[name], SIZES, seed=1)
        for name in ("cdn", "social")
    }


def test_fig09_hit_ratio(benchmark, grids):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for workload, grid in grids.items():
        for label, __ in SIZES:
            row = [workload, SIZE_NAMES[label]]
            for name in paper.LINEUP:
                row.append(f"{grid[label][name].steady_hit_ratio:.1%}")
            rows.append(row)
    print("\n=== Fig. 9: local DRAM hit ratio ===")
    print(format_rows(["workload", "local size"] + list(paper.LINEUP), rows))

    for workload, grid in grids.items():
        # FreqTier tops every cell; at the largest local size the
        # paper itself shows near-parity with AutoNUMA, so the
        # tolerance widens there (everyone fits the hot set at 64 GB).
        for label, __ in SIZES:
            tolerance = 0.02 if label == "1:8" else 0.01
            ft = grid[label]["FreqTier"].steady_hit_ratio
            for other in ("AutoNUMA", "TPP", "HeMem"):
                assert ft >= grid[label][other].steady_hit_ratio - tolerance, (
                    workload,
                    label,
                    other,
                )
        # ~90% at the 16 GB-equivalent (paper's headline).
        assert grid["1:32"]["FreqTier"].steady_hit_ratio > 0.85, workload
        # The FreqTier-vs-AutoNUMA gap narrows with more DRAM (the
        # paper's observation; its TPP gap stays wide on social graph,
        # Table III, so TPP is not part of this check).
        gap_16 = (
            grid["1:32"]["FreqTier"].steady_hit_ratio
            - grid["1:32"]["AutoNUMA"].steady_hit_ratio
        )
        gap_64 = (
            grid["1:8"]["FreqTier"].steady_hit_ratio
            - grid["1:8"]["AutoNUMA"].steady_hit_ratio
        )
        assert gap_16 >= gap_64 - 0.02, workload
        # TPP's deficit at the 16 GB point is substantial.
        assert (
            grid["1:32"]["FreqTier"].steady_hit_ratio
            - grid["1:32"]["TPP"].steady_hit_ratio
            > 0.02
        ), workload
        # HeMem (frequency-based) beats the recency systems on accuracy.
        assert (
            grid["1:32"]["HeMem"].steady_hit_ratio
            > grid["1:32"]["TPP"].steady_hit_ratio
        ), workload
