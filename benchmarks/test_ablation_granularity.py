"""Ablation: tracking granularity (4 KB pages vs huge-page units).

Paper Section III, Challenge 2: "prior works rely on techniques such
as tracking at the huge page granularity.  However, such approaches
sacrifice classification accuracy."  FreqTier tracks at 4 KB -- the
smallest Linux migration granularity -- precisely to avoid fusing hot
and cold small pages into one unit.

The bench sweeps the tracking-unit size on CacheLib CDN: metadata
shrinks with coarser units, but the hit ratio collapses because each
promoted unit drags cold pages into scarce local DRAM.
"""

import pytest

from repro import PolicySpec, compare_policies, paper
from repro.analysis.tables import format_rows

GRANULARITIES = [1, 4, 16, 64]

CONFIG = paper.config("cachelib", max_batches=400, seed=1)


@pytest.fixture(scope="module")
def results():
    swept = compare_policies(
        paper.workloads(1)["cdn"],
        {
            g: PolicySpec("freqtier", seed=1, granularity_pages=g)
            for g in GRANULARITIES
        },
        CONFIG,
    )
    return swept.pop("AllLocal"), swept


def test_ablation_tracking_granularity(benchmark, results):
    base, swept = results
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for g, res in swept.items():
        rel = res.relative_to(base)["throughput"]
        rows.append(
            [
                f"{g * 4} KB",
                f"{rel:.1%}",
                f"{res.steady_hit_ratio:.1%}",
                res.pages_migrated,
            ]
        )
    print("\n=== Ablation: tracking granularity ===")
    print(format_rows(["unit", "throughput", "hit ratio", "migrated"], rows))

    hit = {g: swept[g].steady_hit_ratio for g in GRANULARITIES}
    # 4 KB tracking is the most accurate...
    assert hit[1] == max(hit.values())
    # ...and coarse (huge-page-like) units lose dramatically.
    assert hit[64] < hit[1] - 0.2
    # The degradation is monotone in unit size (within noise).
    assert hit[1] >= hit[4] - 0.02 >= hit[16] - 0.04 >= hit[64] - 0.06
