"""Table III: CacheLib social-graph workload performance.

Paper (CXL-1, throughput %all-local):

    1:32  FreqTier 95.6% | AutoNUMA 87.7% | TPP 77.8% | HeMem 84.7%
    1:16  FreqTier 97.4% | AutoNUMA 93.1% | TPP 82.0% | HeMem 86.2%
    1:8   FreqTier 98.4% | AutoNUMA 95.3% | TPP 85.3% | HeMem 83.8%

Plus the Section VII-A observation 3: FreqTier needs only the 1:32
configuration to exceed 90% of all-local on social graph.
"""

import pytest

from benchmarks._common import cachelib_table, relative_throughput
from repro import paper

RATIOS = paper.ratios("cachelib")
SOCIAL = paper.workloads(1)["social"]


@pytest.fixture(scope="module")
def grid():
    return paper.run_grid(SOCIAL, RATIOS, seed=1)


def test_table3_cachelib_social(benchmark, grid):
    from repro import FreqTier, run_experiment

    config = paper.config("cachelib", max_batches=100, seed=1)
    benchmark.pedantic(
        lambda: run_experiment(SOCIAL, FreqTier, config),
        rounds=1,
        iterations=1,
    )

    print("\n=== Table III: CacheLib social graph ===")
    print(cachelib_table(grid, RATIOS))
    for label, __ in RATIOS:
        hits = {n: grid[label][n].steady_hit_ratio for n in paper.LINEUP}
        print(f"  {label} hit ratios: " + ", ".join(f"{n}={v:.2f}" for n, v in hits.items()))

    for label, __ in RATIOS:
        ft = relative_throughput(grid[label], "FreqTier")
        for other in ("AutoNUMA", "TPP", "HeMem"):
            assert ft > relative_throughput(grid[label], other), (label, other)

    # Observation 3: 90% of all-local already at 1:32.
    assert relative_throughput(grid["1:32"], "FreqTier") >= 0.90

    # 4x-less-DRAM headline: FreqTier at 1:32 beats AutoNUMA at 1:8.
    assert relative_throughput(grid["1:32"], "FreqTier") >= relative_throughput(
        grid["1:8"], "AutoNUMA"
    ) - 0.01
