"""Table II: CacheLib CDN workload performance.

Paper (CXL-1, throughput %all-local):

    1:32  FreqTier 85.9% | AutoNUMA 82.9% | TPP 71.0% | HeMem 80.6%
    1:16  FreqTier 86.9% | AutoNUMA 85.0% | TPP 72.3% | HeMem 81.4%
    1:8   FreqTier 88.8% | AutoNUMA 88.4% | TPP 74.8% | HeMem 79.1%

Shape assertions: FreqTier wins every cell; FreqTier at 1:32 matches
or beats AutoNUMA at 1:16 (the 2x-less-DRAM claim); everyone improves
with more local DRAM.
"""

import pytest

from benchmarks._common import cachelib_table, relative_throughput
from repro import paper

RATIOS = paper.ratios("cachelib")
CDN = paper.workloads(1)["cdn"]


@pytest.fixture(scope="module")
def grid():
    return paper.run_grid(CDN, RATIOS, seed=1)


def test_table2_cachelib_cdn(benchmark, grid):
    # Time one representative cell (FreqTier at 1:32) for the record.
    from repro import FreqTier, run_experiment

    config = paper.config("cachelib", max_batches=100, seed=1)
    benchmark.pedantic(
        lambda: run_experiment(CDN, FreqTier, config),
        rounds=1,
        iterations=1,
    )

    print("\n=== Table II: CacheLib CDN (throughput / P50 vs all-local) ===")
    print(cachelib_table(grid, RATIOS))
    for label, __ in RATIOS:
        hits = {n: grid[label][n].steady_hit_ratio for n in paper.LINEUP}
        print(f"  {label} hit ratios: " + ", ".join(f"{n}={v:.2f}" for n, v in hits.items()))

    # FreqTier wins every cell.
    for label, __ in RATIOS:
        ft = relative_throughput(grid[label], "FreqTier")
        for other in ("AutoNUMA", "TPP", "HeMem"):
            assert ft > relative_throughput(grid[label], other), (label, other)

    # 2x-less-DRAM: FreqTier at 1:32 >= AutoNUMA at 1:16.
    assert relative_throughput(grid["1:32"], "FreqTier") >= relative_throughput(
        grid["1:16"], "AutoNUMA"
    ) - 0.01

    # Monotone improvement with more local DRAM for FreqTier.
    ft_series = [relative_throughput(grid[l], "FreqTier") for l, _ in RATIOS]
    assert ft_series[0] <= ft_series[1] + 0.02 <= ft_series[2] + 0.04
